/**
 * @file
 * Unit tests for SimObject/Clocked time arithmetic.
 */

#include <gtest/gtest.h>

#include "sim/clocked.hh"

namespace ifp::sim {
namespace {

struct ClockedFixture : public ::testing::Test
{
    ClockedFixture() : obj("obj", eq) {}  // 2 GHz -> 500 ticks

    EventQueue eq;
    Clocked obj;
};

TEST_F(ClockedFixture, NameAndPeriod)
{
    EXPECT_EQ(obj.name(), "obj");
    EXPECT_EQ(&obj.eventq(), &eq);
}

TEST_F(ClockedFixture, CycleConversions)
{
    EXPECT_EQ(obj.cyclesToTicks(0), 0u);
    EXPECT_EQ(obj.cyclesToTicks(7), 3500u);
}

TEST_F(ClockedFixture, ClockEdgeOnBoundary)
{
    // curTick == 0 sits exactly on an edge.
    EXPECT_EQ(obj.clockEdge(0), 0u);
    EXPECT_EQ(obj.clockEdge(1), 500u);
    EXPECT_EQ(obj.clockEdge(10), 5000u);
}

TEST_F(ClockedFixture, ClockEdgeOffBoundaryRoundsUp)
{
    bool checked = false;
    eq.schedule(501, [&] {
        // 501 is just past an edge: next edge is 1000.
        EXPECT_EQ(obj.clockEdge(0), 1000u);
        EXPECT_EQ(obj.clockEdge(2), 2000u);
        checked = true;
    });
    eq.simulate();
    EXPECT_TRUE(checked);
}

} // anonymous namespace
} // namespace ifp::sim
