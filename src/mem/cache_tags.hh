/**
 * @file
 * Set-associative tag array with LRU replacement and line pinning.
 *
 * Shared by the L1 and L2 models. The tag array tracks presence and
 * replacement state only; data lives in the functional BackingStore.
 * Lines can be pinned (the L2 pins lines whose monitored bit is set,
 * per the paper) and pinned lines are never chosen as victims.
 *
 * A way is valid iff its epoch word equals the current epoch, so
 * invalidateAll() (the L1's flash on every acquire) is one increment.
 * Invariant: no Line field is read unless that way's epoch word
 * matches, so Lines are allocated uninitialised.
 */

#ifndef IFP_MEM_CACHE_TAGS_HH
#define IFP_MEM_CACHE_TAGS_HH

#include <algorithm>
#include <cstdint>
#include <memory>
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
        bool dirty;
        bool pinned;
        Addr lineAddr;          //!< address of first byte in the line
        std::uint64_t lastUsed;
    };

    /** Small words; a wrap rewrites them once per 65,535 flashes. */
    using Epoch = std::uint16_t;

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
          lines(std::make_unique_for_overwrite<Line[]>(numSets * assoc)),
          lineEpoch(numSets * assoc, invalidEpoch), useCounters(numSets, 0)
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
        std::size_t base = setOf(line_addr) * associativity;
        for (std::size_t i = base; i < base + associativity; ++i) {
            if (lineEpoch[i] == epoch && lines[i].lineAddr == line_addr)
                return &lines[i];
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
        std::size_t base = setOf(line_addr) * associativity;
        Line *victim = nullptr;
        bool victim_valid = true;
        for (std::size_t i = base; i < base + associativity; ++i) {
            if (lineEpoch[i] != epoch) {  // free: displaces nothing
                lineEpoch[i] = epoch;
                victim = &lines[i];
                victim_valid = false;
                break;
            }
            if (lines[i].pinned)
                continue;
            if (!victim || lines[i].lastUsed < victim->lastUsed)
                victim = &lines[i];
        }

        Victim result;
        if (!victim) {
            result.noWayFree = true;
            return result;
        }
        if (victim_valid) {
            result.evicted = true;
            result.wasDirty = victim->dirty;
            result.lineAddr = victim->lineAddr;
        }
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
        if (++epoch == invalidEpoch) {  // wrapped: no old line may match
            std::fill(lineEpoch.begin(), lineEpoch.end(), invalidEpoch);
            epoch = invalidEpoch + 1;
        }
    }

    /** Invalidate one line if present. */
    void
    invalidate(Addr addr)
    {
        if (Line *line = lookup(addr))
            lineEpoch[line - lines.get()] = invalidEpoch;
    }

    std::size_t sets() const { return numSets; }
    unsigned ways() const { return associativity; }
    unsigned lineSize() const { return lineBytes; }

    /** Count currently valid lines (used by tests). */
    std::size_t
    numValid() const
    {
        return static_cast<std::size_t>(
            std::count(lineEpoch.begin(), lineEpoch.end(), epoch));
    }

  private:
    static constexpr Epoch invalidEpoch = 0;  //!< never the epoch

    std::size_t setOf(Addr line_addr) const
    {
        return (line_addr / lineBytes) & (numSets - 1);
    }

    unsigned lineBytes;
    unsigned associativity;
    std::size_t numSets;
    std::unique_ptr<Line[]> lines;
    std::vector<Epoch> lineEpoch;  //!< per way; valid iff == epoch
    Epoch epoch = invalidEpoch + 1;
    std::vector<std::uint64_t> useCounters;
};

} // namespace ifp::mem

#endif // IFP_MEM_CACHE_TAGS_HH
