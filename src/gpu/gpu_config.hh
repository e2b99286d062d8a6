/**
 * @file
 * GPU configuration, defaulted to Table 1 of the paper.
 *
 * Only what a run may vary is here; the CU's shape is fixed
 * (gpu/cu_geometry.hh), as is the L1's (mem/l1_cache.hh).
 */

#ifndef IFP_GPU_GPU_CONFIG_HH
#define IFP_GPU_GPU_CONFIG_HH

#include "mem/l2_cache.hh"

namespace ifp::gpu {

/** System-wide GPU parameters (Table 1). */
struct GpuConfig
{
    unsigned numCus = 8;

    mem::L2Config l2;
};

} // namespace ifp::gpu

#endif // IFP_GPU_GPU_CONFIG_HH
