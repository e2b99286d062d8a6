/**
 * @file
 * GPU configuration, defaulted to Table 1 of the paper.
 */

#ifndef IFP_GPU_GPU_CONFIG_HH
#define IFP_GPU_GPU_CONFIG_HH

#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"

namespace ifp::gpu {

/**
 * Most wavefronts one SIMD can hold: the width of the CU's per-SIMD
 * ready mask. GpuSystem rejects a wavefrontsPerSimd above it.
 */
constexpr unsigned maxWavefrontsPerSimd = 64;

/** LDS capacity of one CU, in bytes. */
constexpr unsigned ldsBytesPerCu = 64 * 1024;

/** Per-CU and system-wide GPU parameters (Table 1). */
struct GpuConfig
{
    unsigned numCus = 8;
    unsigned simdsPerCu = 2;
    unsigned wavefrontsPerSimd = 20;

    mem::L1Config l1;
    mem::L2Config l2;
};

} // namespace ifp::gpu

#endif // IFP_GPU_GPU_CONFIG_HH
