/**
 * @file
 * Tests for AWG's counting Bloom filters, including the paper's
 * hardware budget (512 filters x 24 bits = 12288 bits) and a
 * property-style false-positive check.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "syncmon/bloom_filter.hh"

namespace ifp::syncmon {
namespace {

TEST(BloomFilter, EmptyContainsNothing)
{
    CountingBloomFilter f;
    EXPECT_FALSE(f.mayContain(0));
    EXPECT_FALSE(f.mayContain(123456));
    EXPECT_EQ(f.uniqueCount(), 0u);
}

TEST(BloomFilter, ObserveThenContains)
{
    CountingBloomFilter f;
    EXPECT_TRUE(f.observe(42));
    EXPECT_TRUE(f.mayContain(42));
    EXPECT_EQ(f.uniqueCount(), 1u);
}

TEST(BloomFilter, DuplicatesDoNotIncreaseUniqueCount)
{
    CountingBloomFilter f;
    f.observe(7);
    EXPECT_FALSE(f.observe(7));
    f.observe(7);
    EXPECT_EQ(f.uniqueCount(), 1u);
}

TEST(BloomFilter, CountsDistinctValues)
{
    CountingBloomFilter f;
    // Barrier-like pattern: monotonically increasing counter values.
    for (int v = 1; v <= 8; ++v)
        f.observe(v);
    EXPECT_GE(f.uniqueCount(), 6u);  // allow rare false positives
    EXPECT_LE(f.uniqueCount(), 8u);
}

TEST(BloomFilter, MutexPatternStaysAtTwoUniques)
{
    // Lock values alternate between 0 (free) and 1 (held): AWG must
    // classify this as mutex-like (<= 2 uniques).
    CountingBloomFilter f;
    for (int i = 0; i < 50; ++i) {
        f.observe(i % 2);
    }
    EXPECT_EQ(f.uniqueCount(), 2u);
}

TEST(BloomFilter, ResetClearsState)
{
    CountingBloomFilter f;
    f.observe(1);
    f.observe(2);
    f.reset();
    EXPECT_EQ(f.uniqueCount(), 0u);
    EXPECT_FALSE(f.mayContain(1));
}

TEST(BloomFilter, FalsePositiveRateIsSmallAtPaperOccupancy)
{
    // The paper configures 24 cells / 6 hashes for ~2.1% false
    // positives at its expected occupancy (a couple of values).
    sim::Rng rng(42);
    int false_positives = 0;
    constexpr int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        CountingBloomFilter f(24, 6);
        f.observe(static_cast<std::int64_t>(rng.next()));
        f.observe(static_cast<std::int64_t>(rng.next()));
        auto probe = static_cast<std::int64_t>(rng.next());
        false_positives += f.mayContain(probe) ? 1 : 0;
    }
    double rate = static_cast<double>(false_positives) / trials;
    EXPECT_LT(rate, 0.05);
}

TEST(BloomFilter, CountersSaturateWithoutWrapping)
{
    CountingBloomFilter f(4, 2);  // tiny filter, heavy aliasing
    for (int i = 0; i < 100000; ++i)
        f.observe(i);
    // No crash and membership still reports positives.
    EXPECT_TRUE(f.mayContain(99999));
}

TEST(BloomFilter, CellsSaturateAtMaxWithoutForgetting)
{
    // A wrapping 8-bit counter would pass through 0 at the 256th
    // observation and "forget" the value; saturating cells must park
    // at the ceiling instead. The queue family's drain counters hit
    // exactly this regime (hundreds of updates on one filter).
    CountingBloomFilter f(4, 2);
    for (int i = 0; i < 256; ++i)
        f.observe(42);
    EXPECT_TRUE(f.mayContain(42));
    EXPECT_EQ(f.uniqueCount(), 1u);
    for (int i = 0; i < 300; ++i)  // push well past saturation
        f.observe(42);
    EXPECT_TRUE(f.mayContain(42));
    EXPECT_EQ(f.uniqueCount(), 1u);
}

TEST(BloomFilter, ResetClearsSaturatedCellsAndUniqueCount)
{
    CountingBloomFilter f(8, 3);
    for (int i = 0; i < 1000; ++i)
        f.observe(i);  // saturates every cell
    EXPECT_GT(f.uniqueCount(), 0u);
    f.reset();
    EXPECT_EQ(f.uniqueCount(), 0u);
    for (std::int64_t v : {0, 1, 42, 999})
        EXPECT_FALSE(f.mayContain(v));
    EXPECT_TRUE(f.observe(5));  // fresh again after the reset
}

TEST(BloomBank, PaperHardwareBudget)
{
    BloomFilterBank bank;
    EXPECT_EQ(bank.numFilters(), 512u);
    // 12288 bits = 1.5 KB (paper Section V.C).
    EXPECT_EQ(bank.sizeBits(), 12288u);
}

TEST(BloomBank, StableAddressToFilterMapping)
{
    BloomFilterBank bank;
    CountingBloomFilter &f1 = bank.filterFor(0xABC000);
    CountingBloomFilter &f2 = bank.filterFor(0xABC000);
    EXPECT_EQ(&f1, &f2);
    f1.observe(5);
    EXPECT_EQ(bank.filterFor(0xABC000).uniqueCount(), 1u);
    bank.resetFor(0xABC000);
    EXPECT_EQ(bank.filterFor(0xABC000).uniqueCount(), 0u);
}

TEST(BloomBank, DifferentAddressesUsuallyDifferentFilters)
{
    BloomFilterBank bank;
    int collisions = 0;
    for (int i = 0; i < 100; ++i) {
        if (&bank.filterFor(0x1000 + i * 64) == &bank.filterFor(0x9000))
            ++collisions;
    }
    EXPECT_LT(collisions, 5);
}

} // anonymous namespace
} // namespace ifp::syncmon
