/**
 * @file
 * GPU configuration, defaulted to Table 1 of the paper.
 */

#ifndef IFP_GPU_GPU_CONFIG_HH
#define IFP_GPU_GPU_CONFIG_HH

#include "mem/dma.hh"
#include "mem/dram.hh"
#include "mem/l1_cache.hh"
#include "mem/l2_cache.hh"
#include "sim/types.hh"

namespace ifp::gpu {

/**
 * Most wavefronts one SIMD can hold: the width of the CU's per-SIMD
 * ready mask. GpuSystem rejects a wavefrontsPerSimd above it.
 */
constexpr unsigned maxWavefrontsPerSimd = 64;

/** Per-CU and system-wide GPU parameters (Table 1). */
struct GpuConfig
{
    unsigned numCus = 8;
    unsigned simdsPerCu = 2;
    unsigned simdWidth = 64;
    unsigned wavefrontsPerSimd = 20;
    unsigned ldsBytesPerCu = 64 * 1024;

    /** GPU core clock: 2 GHz. */
    sim::Tick clockPeriod = sim::periodFromFrequency(2'000'000'000ULL);

    /// @name Instruction timing
    /// @{
    sim::Cycles ldsLatency = 4;
    /** Cycles from WG reservation to its wavefronts becoming ready. */
    sim::Cycles dispatchLatency = 100;
    /// @}

    mem::L1Config l1;
    mem::L2Config l2;
    mem::DramConfig dram;
    mem::DmaConfig dma;
};

} // namespace ifp::gpu

#endif // IFP_GPU_GPU_CONFIG_HH
