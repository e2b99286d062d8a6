/**
 * @file
 * Unit tests for atomic-operation semantics, including the waiting
 * forms (parameterized over the opcode space).
 */

#include <gtest/gtest.h>

#include "mem/atomic_op.hh"

namespace ifp::mem {
namespace {

struct AtomicCase
{
    AtomicOpcode op;
    MemValue old_value;
    MemValue operand;
    MemValue compare;
    MemValue expected_new;
    bool expected_wrote;
};

// Names each case by its inputs; without it the case id would be a
// byte dump of the struct, padding included, and change every build.
void
PrintTo(const AtomicCase &c, std::ostream *os)
{
    *os << atomicOpcodeName(c.op) << " old=" << c.old_value
        << " operand=" << c.operand << " compare=" << c.compare;
}

class AtomicOpTest : public ::testing::TestWithParam<AtomicCase>
{
};

TEST_P(AtomicOpTest, AppliesSemantics)
{
    const AtomicCase &c = GetParam();
    AtomicResult r = applyAtomic(c.op, c.old_value, c.operand,
                                 c.compare);
    EXPECT_EQ(r.oldValue, c.old_value);
    EXPECT_EQ(r.newValue, c.expected_new);
    EXPECT_EQ(r.wrote, c.expected_wrote);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, AtomicOpTest,
    ::testing::Values(
        AtomicCase{AtomicOpcode::Load, 5, 99, 0, 5, false},
        AtomicCase{AtomicOpcode::Store, 5, 9, 0, 9, true},
        AtomicCase{AtomicOpcode::Store, 5, 5, 0, 5, false},
        AtomicCase{AtomicOpcode::Add, 5, 3, 0, 8, true},
        AtomicCase{AtomicOpcode::Add, 5, 0, 0, 5, false},
        AtomicCase{AtomicOpcode::Sub, 5, 3, 0, 2, true},
        AtomicCase{AtomicOpcode::Exch, 5, 7, 0, 7, true},
        AtomicCase{AtomicOpcode::Exch, 5, 5, 0, 5, false},
        AtomicCase{AtomicOpcode::Cas, 5, 9, 5, 9, true},
        AtomicCase{AtomicOpcode::Cas, 5, 9, 4, 5, false},
        AtomicCase{AtomicOpcode::Min, 5, 3, 0, 3, true},
        AtomicCase{AtomicOpcode::Min, 5, 8, 0, 5, false},
        AtomicCase{AtomicOpcode::Max, 5, 8, 0, 8, true},
        AtomicCase{AtomicOpcode::Max, 5, 3, 0, 5, false},
        AtomicCase{AtomicOpcode::And, 6, 3, 0, 2, true},
        AtomicCase{AtomicOpcode::Or, 6, 1, 0, 7, true},
        AtomicCase{AtomicOpcode::Xor, 6, 3, 0, 5, true},
        AtomicCase{AtomicOpcode::Inc, 5, 0, 0, 6, true},
        AtomicCase{AtomicOpcode::Dec, 5, 0, 0, 4, true},
        AtomicCase{AtomicOpcode::Add, -5, -3, 0, -8, true},
        AtomicCase{AtomicOpcode::Min, -5, -8, 0, -8, true}));

TEST(WaitingAtomic, SucceedsOnExpectedValue)
{
    EXPECT_TRUE(waitingAtomicSucceeded(AtomicOpcode::Load, 7, 7));
    EXPECT_FALSE(waitingAtomicSucceeded(AtomicOpcode::Load, 7, 8));
    EXPECT_TRUE(waitingAtomicSucceeded(AtomicOpcode::Exch, 0, 0));
    EXPECT_FALSE(waitingAtomicSucceeded(AtomicOpcode::Exch, 1, 0));
    // Waiting CAS: expectation is the compare operand.
    EXPECT_TRUE(waitingAtomicSucceeded(AtomicOpcode::Cas, 5, 5));
    EXPECT_FALSE(waitingAtomicSucceeded(AtomicOpcode::Cas, 6, 5));
}

TEST(AtomicOp, NamesAreDistinct)
{
    EXPECT_EQ(atomicOpcodeName(AtomicOpcode::Add), "add");
    EXPECT_EQ(atomicOpcodeName(AtomicOpcode::Cas), "cas");
    EXPECT_NE(atomicOpcodeName(AtomicOpcode::Min),
              atomicOpcodeName(AtomicOpcode::Max));
}

} // anonymous namespace
} // namespace ifp::mem
