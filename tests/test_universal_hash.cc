/**
 * @file
 * Property tests for the Carter-Wegman universal hashing behind the
 * SyncMon condition cache and Bloom filters, plus a randomized
 * model check of the event queue (schedule and step against a
 * reference implementation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "syncmon/universal_hash.hh"

namespace ifp {
namespace {

TEST(UniversalHash, Deterministic)
{
    syncmon::UniversalHash h;
    EXPECT_EQ(h(12345), h(12345));
    EXPECT_EQ(h(0), h(0));
}

TEST(UniversalHash, DifferentInstancesDiffer)
{
    syncmon::UniversalHash a(3, 5), b(7, 11);
    int same = 0;
    for (std::uint64_t x = 0; x < 200; ++x)
        same += a(x) == b(x) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(UniversalHash, SpreadsSequentialAddresses)
{
    // Sync variables are typically line-strided; the condition cache
    // must not alias them into a few sets.
    syncmon::UniversalHash h(0x2545F4914F6CDD1DULL, 0x9E3779B9ULL);
    std::array<int, 64> buckets{};
    for (std::uint64_t i = 0; i < 4096; ++i)
        ++buckets[h(0x10000000 + i * 64) % 64];
    auto [mn, mx] = std::minmax_element(buckets.begin(),
                                        buckets.end());
    EXPECT_GT(*mn, 20);   // expected 64 per bucket
    EXPECT_LT(*mx, 160);
}

TEST(UniversalHash, ConditionKeyMixesAddressAndValue)
{
    // Distinct (addr, value) pairs should give distinct keys in the
    // common case (FAM: many values on one address).
    std::set<std::uint64_t> keys;
    for (int v = 0; v < 256; ++v)
        keys.insert(syncmon::conditionKey(0x1000, v, 10));
    EXPECT_EQ(keys.size(), 256u);
}

TEST(UniversalHash, StaysBelowMersennePrime)
{
    syncmon::UniversalHash h;
    sim::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(h(rng.next()), syncmon::UniversalHash::prime);
}

/**
 * Randomized model check: drive the event queue with random schedule
 * and step operations and verify execution order against a sorted
 * reference model.
 */
TEST(EventQueueModel, RandomizedAgainstReference)
{
    sim::Rng rng(2020);

    for (int round = 0; round < 20; ++round) {
        sim::EventQueue eq;
        std::vector<int> executed;

        struct Rec : sim::Event
        {
            std::vector<int> *log = nullptr;
            int id = 0;
            void process() override { log->push_back(id); }
        };

        constexpr int n = 64;
        std::vector<Rec> events(n);
        // Reference: pending (tick, schedule sequence, id) in run order.
        std::set<std::tuple<sim::Tick, std::uint64_t, int>> model;
        std::uint64_t seq = 0;
        std::vector<int> expected;

        for (int i = 0; i < n; ++i) {
            events[i].log = &executed;
            events[i].id = i;
        }

        for (int op = 0; op < 300; ++op) {
            int idx = static_cast<int>(rng.uniform(n));
            Rec &ev = events[idx];
            if (!ev.scheduled()) {
                sim::Tick when = eq.curTick() + rng.uniform(1000);
                eq.schedule(&ev, when);
                model.insert({when, seq++, idx});
            } else {
                // A picked pending event runs the queue one step.
                EXPECT_TRUE(eq.step());
                expected.push_back(std::get<2>(*model.begin()));
                model.erase(model.begin());
            }
        }

        EXPECT_EQ(eq.size(), model.size());
        eq.simulate();

        for (const auto &entry : model)
            expected.push_back(std::get<2>(entry));
        EXPECT_EQ(executed, expected) << "round " << round;
    }
}

} // anonymous namespace
} // namespace ifp
