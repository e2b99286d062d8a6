/**
 * @file
 * Tests for WG dispatch, occupancy limits, completion tracking and
 * the context-switch flows, exercised through a real GpuSystem.
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace ifp {
namespace {

using isa::KernelBuilder;

/** Kernel: every WG bumps a counter, does some work, and halts. */
isa::Kernel
countingKernel(core::GpuSystem &system, unsigned num_wgs,
               unsigned max_wgs_per_cu, mem::Addr counter)
{
    KernelBuilder b;
    b.movi(16, 1);
    b.movi(17, static_cast<std::int64_t>(counter));
    b.valu(200);
    b.atom(18, mem::AtomicOpcode::Add, 17, 0, 16);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, num_wgs);
    k.maxWgsPerCu = max_wgs_per_cu;
    return k;
}

TEST(Dispatcher, AllWgsRunAndComplete)
{
    core::GpuSystem system(test::testRunConfig());
    mem::Addr counter = system.allocate(64);
    auto result =
        system.run(countingKernel(system, 32, 8, counter));
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(system.memory().read(counter, 8), 32);
    EXPECT_EQ(system.dispatcher().numCompleted(), 32u);
}

/** Independent compute kernel: each WG stores to its own line. */
isa::Kernel
computeKernel(mem::Addr out, unsigned num_wgs,
              unsigned max_wgs_per_cu)
{
    KernelBuilder b;
    b.valu(2000);
    b.muli(16, isa::rWgId, 64);
    b.movi(17, static_cast<std::int64_t>(out));
    b.add(17, 17, 16);
    b.movi(18, 1);
    b.st(17, 18);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, num_wgs);
    k.maxWgsPerCu = max_wgs_per_cu;
    return k;
}

TEST(Dispatcher, OccupancyLimitSerializesWaves)
{
    // 64 independent WGs, only 1 per CU: dispatch happens in 8 waves
    // and runtime scales; with 8 per CU everything runs in parallel.
    core::GpuSystem sys_tight(test::testRunConfig());
    mem::Addr o1 = sys_tight.allocate(64 * 64);
    auto tight = sys_tight.run(computeKernel(o1, 64, 1));

    core::GpuSystem sys_loose(test::testRunConfig());
    mem::Addr o2 = sys_loose.allocate(64 * 64);
    auto loose = sys_loose.run(computeKernel(o2, 64, 8));

    ASSERT_TRUE(tight.completed);
    ASSERT_TRUE(loose.completed);
    EXPECT_GT(tight.gpuCycles, 2 * loose.gpuCycles);
    for (int wg = 0; wg < 64; ++wg)
        ASSERT_EQ(sys_tight.memory().read(o1 + wg * 64, 8), 1);
}

TEST(Dispatcher, LdsBoundsOccupancy)
{
    core::GpuSystem system(test::testRunConfig());
    mem::Addr counter = system.allocate(64);
    isa::Kernel k = countingKernel(system, 16, 8, counter);
    // Each WG asks for half the CU's LDS: only 2 fit per CU.
    k.ldsBytes = system.config().gpu.ldsBytesPerCu / 2;
    auto result = system.run(k);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(system.memory().read(counter, 8), 16);
}

TEST(Dispatcher, ForcedPreemptionSavesContexts)
{
    // Long-running WGs, one CU taken offline mid-run.
    core::RunConfig cfg = test::testRunConfig();
    cfg.faultPlan = core::FaultPlan::cuLoss(1);
    core::GpuSystem system(cfg);
    mem::Addr counter = system.allocate(64);

    KernelBuilder b;
    b.movi(16, 1);
    b.movi(17, static_cast<std::int64_t>(counter));
    for (int i = 0; i < 6; ++i)
        b.valu(1000);
    b.atom(18, mem::AtomicOpcode::Add, 17, 0, 16);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, 16);
    k.maxWgsPerCu = 2;

    auto result = system.run(k);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(system.memory().read(counter, 8), 16);
    EXPECT_GT(result.forcedPreemptions, 0u);
    EXPECT_EQ(result.contextSaves, result.contextRestores);
    EXPECT_GT(result.contextSaves, 0u);
}

TEST(Dispatcher, PreemptedWgsRestartOnOtherCus)
{
    // With swap-in capability, WGs pre-empted from the lost CU finish
    // on the remaining ones even though the kernel initially filled
    // the whole machine.
    core::RunConfig cfg = test::testRunConfig(core::Policy::Awg);
    cfg.faultPlan = core::FaultPlan::cuLoss(1);
    core::GpuSystem system(cfg);
    mem::Addr marks = system.allocate(64 * 64);

    KernelBuilder b;
    for (int i = 0; i < 8; ++i)
        b.valu(1000);
    b.muli(16, isa::rWgId, 64);
    b.movi(17, static_cast<std::int64_t>(marks));
    b.add(17, 17, 16);
    b.movi(18, 1);
    b.st(17, 18);
    b.halt();
    isa::Kernel k = test::makeTestKernel(b, 16);
    k.maxWgsPerCu = 2;  // 8 CUs x 2 = exactly 16 resident

    auto result = system.run(k);
    ASSERT_TRUE(result.completed);
    for (int wg = 0; wg < 16; ++wg)
        EXPECT_EQ(system.memory().read(marks + wg * 64, 8), 1)
            << "wg " << wg;
}

TEST(Dispatcher, StatsCountDispatches)
{
    core::GpuSystem system(test::testRunConfig());
    mem::Addr counter = system.allocate(64);
    system.run(countingKernel(system, 24, 8, counter));
    EXPECT_DOUBLE_EQ(
        system.dispatcher().stats().scalar("dispatches").value(),
        24.0);
}

TEST(GpuSystem, AllocatorAlignsAndSeparates)
{
    core::GpuSystem system(test::testRunConfig());
    mem::Addr a = system.allocate(10, 64);
    mem::Addr b = system.allocate(100, 64);
    mem::Addr c = system.allocate(8, 4096);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 4096, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GE(c, b + 100);
}

TEST(GpuSystem, DeadlockDetectorFlagsNonProgressingKernel)
{
    // A kernel spinning on a value nobody ever writes: no memory
    // mutations, no completions -> deadlock, not a hang.
    core::RunConfig cfg = test::testRunConfig(core::Policy::Baseline);
    cfg.deadlockWindowCycles = 20'000;
    core::GpuSystem system(cfg);
    mem::Addr flag = system.allocate(64);

    KernelBuilder b;
    b.movi(16, static_cast<std::int64_t>(flag));
    auto spin = b.here();
    b.atom(17, mem::AtomicOpcode::Load, 16, 0, 0);
    b.bz(17, spin);
    b.halt();

    auto result = system.run(test::makeTestKernel(b, 4));
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.deadlocked);
}

TEST(GpuSystem, StatsDumpIsNonEmpty)
{
    core::GpuSystem system(test::testRunConfig());
    mem::Addr counter = system.allocate(64);
    system.run(countingKernel(system, 8, 8, counter));
    std::ostringstream os;
    system.dumpStats(os);
    EXPECT_NE(os.str().find("l2.atomics"), std::string::npos);
    EXPECT_NE(os.str().find("cu0.instructions"), std::string::npos);
}

} // anonymous namespace
} // namespace ifp
