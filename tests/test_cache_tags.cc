/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <limits>

#include "mem/cache_tags.hh"

namespace ifp::mem {
namespace {

TEST(CacheTags, LineAlignment)
{
    CacheTags tags(1024, 2, 64);
    EXPECT_EQ(tags.lineOf(0x1234), 0x1200u | 0x00u);
    EXPECT_EQ(tags.lineOf(0x1240), 0x1240u);
    EXPECT_EQ(tags.lineOf(0x127F), 0x1240u);
}

TEST(CacheTags, MissThenHitAfterInsert)
{
    CacheTags tags(1024, 2, 64);
    EXPECT_EQ(tags.lookup(0x1000), nullptr);
    tags.insert(0x1000);
    CacheTags::Line *line = tags.lookup(0x1010);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->lineAddr, 0x1000u);
}

TEST(CacheTags, LruEviction)
{
    // 2-way, 64B lines, 2 sets (256 B total).
    CacheTags tags(256, 2, 64);
    // Three lines mapping to set 0 (stride = sets * line = 128).
    tags.insert(0x0000);
    tags.insert(0x0080);
    tags.touch(*tags.lookup(0x0000));  // make 0x0080 the LRU
    CacheTags::Victim victim = tags.insert(0x0100);
    EXPECT_TRUE(victim.evicted);
    EXPECT_EQ(victim.lineAddr, 0x0080u);
    EXPECT_NE(tags.lookup(0x0000), nullptr);
    EXPECT_EQ(tags.lookup(0x0080), nullptr);
    EXPECT_NE(tags.lookup(0x0100), nullptr);
}

TEST(CacheTags, PinnedLinesAreNotVictims)
{
    CacheTags tags(256, 2, 64);
    tags.insert(0x0000);
    tags.insert(0x0080);
    tags.lookup(0x0000)->pinned = true;
    tags.lookup(0x0080)->pinned = true;
    CacheTags::Victim victim = tags.insert(0x0100);
    EXPECT_TRUE(victim.noWayFree);
    EXPECT_EQ(tags.lookup(0x0100), nullptr);

    tags.lookup(0x0080)->pinned = false;
    victim = tags.insert(0x0100);
    EXPECT_FALSE(victim.noWayFree);
    EXPECT_EQ(victim.lineAddr, 0x0080u);
}

TEST(CacheTags, DirtyVictimReported)
{
    CacheTags tags(256, 1, 64);  // direct-mapped, 4 sets
    tags.insert(0x0000);
    tags.lookup(0x0000)->dirty = true;
    CacheTags::Victim victim = tags.insert(0x0100);  // same set
    EXPECT_TRUE(victim.evicted);
    EXPECT_TRUE(victim.wasDirty);
}

TEST(CacheTags, InvalidateAllAndOne)
{
    CacheTags tags(1024, 2, 64);
    tags.insert(0x0000);
    tags.insert(0x1000);
    EXPECT_EQ(tags.numValid(), 2u);
    tags.invalidate(0x0000);
    EXPECT_EQ(tags.numValid(), 1u);
    EXPECT_EQ(tags.lookup(0x0000), nullptr);
    tags.invalidateAll();
    EXPECT_EQ(tags.numValid(), 0u);
}

TEST(CacheTags, GeometryAccessors)
{
    CacheTags tags(512 * 1024, 16, 64);
    EXPECT_EQ(tags.sets(), 512u);
    EXPECT_EQ(tags.ways(), 16u);
    EXPECT_EQ(tags.lineSize(), 64u);
}

TEST(CacheTags, FillsWholeSetBeforeEvicting)
{
    CacheTags tags(512, 4, 64);  // 2 sets, 4 ways
    for (int i = 0; i < 4; ++i) {
        CacheTags::Victim victim = tags.insert(0x0000 + i * 0x80);
        EXPECT_FALSE(victim.evicted);
    }
    CacheTags::Victim victim = tags.insert(4 * 0x80);
    EXPECT_TRUE(victim.evicted);
}

TEST(CacheTags, FlashInvalidateMissesEveryLinePinnedIncluded)
{
    CacheTags tags(1024, 2, 64);  // 8 sets
    for (Addr a = 0; a < 16 * 64; a += 64)
        tags.insert(a);
    ASSERT_EQ(tags.numValid(), 16u);
    tags.lookup(0x0000)->pinned = true;
    tags.lookup(0x0040)->pinned = true;

    tags.invalidateAll();
    EXPECT_EQ(tags.numValid(), 0u);
    for (Addr a = 0; a < 16 * 64; a += 64)
        EXPECT_EQ(tags.lookup(a), nullptr) << "line 0x" << std::hex << a;
}

TEST(CacheTags, ReinsertAfterFlashEvictsNothing)
{
    CacheTags tags(256, 2, 64);  // 2 sets x 2 ways
    tags.insert(0x0000);
    tags.insert(0x0080);
    tags.lookup(0x0000)->dirty = true;
    tags.lookup(0x0080)->pinned = true;
    tags.invalidateAll();

    // Both ways of set 0 are free again: no victim, dirty or pinned.
    for (Addr a : {Addr(0x0100), Addr(0x0180)}) {
        CacheTags::Line *line = nullptr;
        CacheTags::Victim victim = tags.insert(a, &line);
        EXPECT_FALSE(victim.evicted);
        EXPECT_FALSE(victim.wasDirty);
        EXPECT_FALSE(victim.noWayFree);
        ASSERT_NE(line, nullptr);
        EXPECT_FALSE(line->dirty);
        EXPECT_FALSE(line->pinned);
    }
    EXPECT_EQ(tags.numValid(), 2u);
    EXPECT_EQ(tags.lookup(0x0000), nullptr);
    EXPECT_EQ(tags.lookup(0x0080), nullptr);
}

TEST(CacheTags, InvalidateOneKeepsTheRestOfItsSet)
{
    CacheTags tags(512, 4, 64);  // 2 sets x 4 ways
    const Addr set0[] = {0x0000, 0x0080, 0x0100, 0x0180};
    for (Addr a : set0)
        tags.insert(a);
    tags.invalidate(0x0100);
    EXPECT_EQ(tags.numValid(), 3u);
    EXPECT_EQ(tags.lookup(0x0100), nullptr);
    for (Addr a : {set0[0], set0[1], set0[3]}) {
        CacheTags::Line *line = tags.lookup(a);
        ASSERT_NE(line, nullptr);
        EXPECT_EQ(line->lineAddr, a);
    }
    // The freed way is reused before any valid line is displaced.
    EXPECT_FALSE(tags.insert(0x0200).evicted);
}

TEST(CacheTags, EpochWrapRevivesNoLine)
{
    // Enough flashes to wrap the validity epoch three times.
    static_assert(sizeof(CacheTags::Epoch) <= 2,
                  "a wider epoch needs a longer wrap test");
    constexpr long flashes =
        3L * (long(std::numeric_limits<CacheTags::Epoch>::max()) + 1);

    CacheTags tags(256, 2, 64);  // 2 sets x 2 ways
    // Validated once, at the first epoch, and never touched again: a
    // wrap that did not reset the words would bring it back.
    tags.insert(0x0000);
    long revived = 0;
    long stale = 0;
    for (long i = 0; i < flashes; ++i) {
        // A fresh line in set 1 at every epoch, the last before each
        // wrap included.
        tags.insert(0x0040);
        tags.invalidateAll();
        revived += tags.lookup(0x0000) != nullptr;
        stale += tags.lookup(0x0040) != nullptr;
        stale += tags.numValid() != 0;
    }
    EXPECT_EQ(revived, 0);
    EXPECT_EQ(stale, 0);

    // The tags still work after the wraps.
    tags.insert(0x0000);
    EXPECT_NE(tags.lookup(0x0000), nullptr);
    EXPECT_EQ(tags.numValid(), 1u);
}

} // anonymous namespace
} // namespace ifp::mem
