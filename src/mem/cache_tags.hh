/**
 * @file
 * Set-associative tag array with LRU replacement and line pinning.
 *
 * Shared by the L1 and L2 models. The tag array tracks presence and
 * replacement state only; data lives in the functional BackingStore.
 * Lines can be pinned (the L2 pins lines whose monitored bit is set,
 * per the paper) and pinned lines are never chosen as victims.
 */

#ifndef IFP_MEM_CACHE_TAGS_HH
#define IFP_MEM_CACHE_TAGS_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace ifp::mem {

/** Tag array of a single cache (or cache bank). */
class CacheTags
{
  public:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool pinned = false;
        Addr lineAddr = 0;      //!< address of first byte in the line
        std::uint64_t lastUsed = 0;
    };

    /** Outcome of inserting a new line. */
    struct Victim
    {
        bool evicted = false;     //!< an existing line was displaced
        bool wasDirty = false;
        Addr lineAddr = 0;
        bool noWayFree = false;   //!< all ways pinned: insertion failed
    };

    CacheTags(std::size_t size_bytes, unsigned assoc, unsigned line_bytes)
        : lineBytes(line_bytes), associativity(assoc),
          numSets(size_bytes / (assoc * line_bytes)),
          lines(numSets * assoc), useCounters(numSets, 0)
    {
        ifp_assert(numSets > 0, "cache too small for its associativity");
        ifp_assert((numSets & (numSets - 1)) == 0,
                   "number of sets must be a power of two");
    }

    /** Align an address down to its line base. */
    Addr lineOf(Addr addr) const { return addr & ~Addr(lineBytes - 1); }

    /** Find the line containing @p addr; nullptr on miss. */
    Line *
    lookup(Addr addr)
    {
        Addr line_addr = lineOf(addr);
        std::size_t set = setOf(line_addr);
        for (unsigned way = 0; way < associativity; ++way) {
            Line &line = lines[set * associativity + way];
            if (line.valid && line.lineAddr == line_addr)
                return &line;
        }
        return nullptr;
    }

    /**
     * Mark @p line most recently used. The recency counter is
     * per-set because replacement only ever compares lines within one
     * set.
     */
    void
    touch(Line &line)
    {
        line.lastUsed = ++useCounters[setOf(line.lineAddr)];
    }

    /**
     * Allocate a way for the line containing @p addr, evicting the LRU
     * non-pinned way if necessary. The returned Victim describes what
     * was displaced; on success the new line is valid and MRU.
     */
    Victim
    insert(Addr addr, Line **out_line = nullptr)
    {
        Addr line_addr = lineOf(addr);
        std::size_t set = setOf(line_addr);
        Line *victim = nullptr;
        for (unsigned way = 0; way < associativity; ++way) {
            Line &line = lines[set * associativity + way];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (line.pinned)
                continue;
            if (!victim || line.lastUsed < victim->lastUsed)
                victim = &line;
        }

        Victim result;
        if (!victim) {
            result.noWayFree = true;
            return result;
        }
        if (victim->valid) {
            result.evicted = true;
            result.wasDirty = victim->dirty;
            result.lineAddr = victim->lineAddr;
        }
        victim->valid = true;
        victim->dirty = false;
        victim->pinned = false;
        victim->lineAddr = line_addr;
        touch(*victim);
        if (out_line)
            *out_line = victim;
        return result;
    }

    /** Invalidate every line (pinned lines included). */
    void
    invalidateAll()
    {
        for (Line &line : lines)
            line.valid = false;
    }

    /** Invalidate one line if present. */
    void
    invalidate(Addr addr)
    {
        if (Line *line = lookup(addr))
            line->valid = false;
    }

    std::size_t sets() const { return numSets; }
    unsigned ways() const { return associativity; }
    unsigned lineSize() const { return lineBytes; }

    /** Count currently valid lines (used by tests). */
    std::size_t
    numValid() const
    {
        std::size_t n = 0;
        for (const Line &line : lines)
            n += line.valid ? 1 : 0;
        return n;
    }

  private:
    std::size_t setOf(Addr line_addr) const
    {
        return (line_addr / lineBytes) & (numSets - 1);
    }

    unsigned lineBytes;
    unsigned associativity;
    std::size_t numSets;
    std::vector<Line> lines;
    std::vector<std::uint64_t> useCounters;
};

} // namespace ifp::mem

#endif // IFP_MEM_CACHE_TAGS_HH
