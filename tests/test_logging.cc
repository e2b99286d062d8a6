/**
 * @file
 * Unit tests for the waiting-CAS instruction end-to-end (the paper's
 * "CAS is a perfect candidate for a waiting atomic").
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace ifp {
namespace {

TEST(WaitingCas, ProducerConsumerViaWaitingCompareAndSwap)
{
    // Consumer claims a token with a *waiting CAS* (expected value is
    // the CAS compare operand): wait until the flag holds 7, then
    // atomically swap in 9.
    core::GpuSystem system(test::testRunConfig());
    mem::Addr flag = system.allocate(64);
    mem::Addr out = system.allocate(64);

    isa::KernelBuilder b;
    b.movi(16, static_cast<std::int64_t>(flag));
    isa::Label consumer = b.label();
    isa::Label done = b.label();
    b.bz(isa::rWgId, consumer);

    // Producer (wg1): publish 7 after some work.
    b.valu(2000);
    b.movi(17, 7);
    b.atom(20, mem::AtomicOpcode::Exch, 16, 0, 17, 0, false, true);
    b.br(done);

    // Consumer (wg0): waiting CAS 7 -> 9.
    b.bind(consumer);
    b.movi(17, 9);   // swap-in value
    b.movi(18, 7);   // compare / expected
    isa::Label retry = b.here();
    b.atomWait(20, mem::AtomicOpcode::Cas, 16, 0, 17, 18, true);
    b.cmpEq(21, 20, 18);
    b.bz(21, retry);
    b.movi(22, static_cast<std::int64_t>(out));
    b.st(22, 20);   // record the observed old value (7)

    b.bind(done);
    b.halt();

    isa::Kernel k = test::makeTestKernel(b, 2);
    auto result = system.run(k);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(system.memory().read(out, 8), 7);
    EXPECT_EQ(system.memory().read(flag, 8), 9);  // swap happened
    EXPECT_GT(result.waitingAtomics, 0u);
}

TEST(WaitingCas, FailedCasDoesNotModifyMemory)
{
    // A waiting CAS never "half-fires": until the expected value is
    // observed, memory is untouched.
    core::GpuSystem system(test::testRunConfig());
    mem::Addr flag = system.allocate(64);
    system.memory().write(flag, 5, 8);

    isa::KernelBuilder b;
    b.movi(16, static_cast<std::int64_t>(flag));
    b.movi(17, 9);
    b.movi(18, 5);
    b.atomWait(20, mem::AtomicOpcode::Cas, 16, 0, 17, 18, true);
    b.halt();

    auto result = system.run(test::makeTestKernel(b, 1));
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(system.memory().read(flag, 8), 9);  // matched: swapped
}

} // anonymous namespace
} // namespace ifp
