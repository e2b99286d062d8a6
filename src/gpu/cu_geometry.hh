/**
 * @file
 * The fixed shape of one compute unit (Table 1).
 *
 * Constants only, so that analysis/ can bound a kernel's occupancy
 * with the same values ComputeUnit::canHost enforces without
 * depending on the GPU model.
 */

#ifndef IFP_GPU_CU_GEOMETRY_HH
#define IFP_GPU_CU_GEOMETRY_HH

namespace ifp::gpu {

/** SIMD units per CU; each issues one instruction per cycle. */
constexpr unsigned simdsPerCu = 2;

/** Wavefront slots per SIMD. */
constexpr unsigned wavefrontsPerSimd = 20;

/** LDS capacity of one CU, in bytes. */
constexpr unsigned ldsBytesPerCu = 64 * 1024;

} // namespace ifp::gpu

#endif // IFP_GPU_CU_GEOMETRY_HH
