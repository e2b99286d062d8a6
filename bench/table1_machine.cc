/**
 * @file
 * Table 1: the baseline GPU model. Prints the simulated machine's
 * configuration and asserts it matches the paper's parameters.
 */

#include "bench_common.hh"
#include "core/gpu_system.hh"
#include "sim/logging.hh"

int
main()
{
    using namespace ifp;
    bench::banner("Table 1 - Baseline GPU model");

    core::RunConfig cfg;
    const gpu::GpuConfig &g = cfg.gpu;

    harness::TextTable t({"Parameter", "Value"});
    t.addRow({"Compute Units", std::to_string(g.numCus)});
    t.addRow({"Clock",
              std::to_string(sim::ticksPerSecond / sim::gpuClockPeriod /
                             1'000'000'000ULL) +
                  " GHz"});
    t.addRow({"SIMD units / CU", std::to_string(gpu::simdsPerCu)});
    t.addRow({"SIMD width", std::to_string(isa::wavefrontSize)});
    t.addRow({"Wavefronts / SIMD",
              std::to_string(gpu::wavefrontsPerSimd)});
    t.addRow({"LDS / CU",
              std::to_string(gpu::ldsBytesPerCu / 1024) + " KB"});
    t.addRow({"L1 / CU",
              std::to_string(mem::l1SizeBytes / 1024) + " KB, " +
                  std::to_string(mem::l1Assoc) + "-way, " +
                  std::to_string(mem::l1HitLatency) + " cycles"});
    t.addRow({"L2 shared",
              std::to_string(g.l2.sizeBytes / 1024) + " KB, " +
                  std::to_string(g.l2.assoc) + "-way, " +
                  std::to_string(mem::l2HitLatency) + " cycles, " +
                  std::to_string(mem::l2Banks) + " banks"});
    t.addRow({"L2 same-line atomic turnaround",
              std::to_string(g.l2.sameLineAtomicGapCycles) +
                  " cycles"});
    t.addRow({"DRAM",
              std::to_string(mem::dramChannels) + " channels, " +
                  std::to_string(mem::dramAccessLatency) +
                  "-cycle access @ 1 GHz"});
    t.addRow({"Cacheline", std::to_string(mem::cacheLineBytes) + " B"});
    bench::printTable(t);

    // Guard the Table 1 parameters against accidental drift.
    ifp_assert(g.numCus == 8, "Table 1: 8 CUs");
    ifp_assert(sim::ticksPerSecond / sim::gpuClockPeriod ==
                   2'000'000'000ULL,
               "Table 1: 2 GHz GPU clock");
    ifp_assert(gpu::simdsPerCu == 2, "Table 1: 2 SIMDs per CU");
    ifp_assert(isa::wavefrontSize == 64, "Table 1: SIMD width 64");
    ifp_assert(gpu::wavefrontsPerSimd == 20,
               "Table 1: 20 wavefronts per SIMD");
    ifp_assert(gpu::ldsBytesPerCu == 64 * 1024, "Table 1: 64KB LDS per CU");
    ifp_assert(mem::l1SizeBytes == 32 * 1024 && mem::l1Assoc == 16 &&
                   mem::l1HitLatency == 30,
               "Table 1: 32KB 16-way 30-cycle L1");
    ifp_assert(g.l2.sizeBytes == 512 * 1024 && g.l2.assoc == 16 &&
               mem::l2HitLatency == 50,
               "Table 1: 512KB 16-way 50-cycle L2");
    ifp_assert(mem::dramChannels == 4 &&
                   sim::ticksPerSecond / mem::dramClockPeriod ==
                       1'000'000'000ULL,
               "Table 1: 4 DRAM channels at 1 GHz");
    std::cout << "\nAll Table 1 parameters verified.\n";
    return 0;
}
