/**
 * @file
 * SyncMon condition cache and waiting-WG list.
 *
 * Per the paper (§V.C): the condition cache is logically 4-way set
 * associative with 256 sets (1024 waiting conditions). A condition is
 * the hash of (monitored address, waiting value); each entry carries
 * two 9-bit pointers (head/tail) into a shared 512-entry waiting-WG
 * list. Combined hardware budget: 26112 bits (3.18 KB).
 *
 * Conditions holding waiters are never silently evicted — when a set
 * is full or the waiting list is exhausted, the SyncMon controller
 * spills to the Monitor Log (the virtualization interface).
 *
 * The MonRS (sporadic) policy monitors addresses rather than
 * (address, value) conditions; the cache supports that with an
 * address-only key mode per lookup.
 */

#ifndef IFP_SYNCMON_CONDITION_CACHE_HH
#define IFP_SYNCMON_CONDITION_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "syncmon/universal_hash.hh"

namespace ifp::syncmon {

/** A registered waiter: WG id plus its registration time. */
struct Waiter
{
    int wgId = -1;
    sim::Tick registeredTick = 0;
};

/**
 * The shared waiting-WG list: a freelist-managed pool of linked
 * nodes referenced by condition cache entries.
 */
class WaitingWgList
{
  public:
    explicit WaitingWgList(unsigned capacity = 512);

    /** Index of an allocated node, or -1 when the list is full. */
    int allocate(const Waiter &waiter);

    /** Return a node to the freelist. */
    void release(int index);

    Waiter &node(int index);
    int next(int index) const;
    void setNext(int index, int next_index);

    unsigned capacity() const { return nodes.size(); }
    unsigned inUse() const { return used; }
    unsigned maxInUse() const { return maxUsed; }

  private:
    struct Node
    {
        Waiter waiter;
        int next = -1;
        bool allocated = false;
    };

    std::vector<Node> nodes;
    int freeHead = 0;
    unsigned used = 0;
    unsigned maxUsed = 0;
};

/** The 4-way x 256-set condition cache. */
class ConditionCache
{
  public:
    struct Entry
    {
        bool valid = false;
        mem::Addr addr = 0;
        mem::MemValue value = 0;
        bool addrOnly = false;    //!< MonRS-style address condition
        int head = -1;            //!< first waiter node
        int tail = -1;            //!< last waiter node
        unsigned numWaiters = 0;
        sim::Tick createdTick = 0;
    };

    ConditionCache(unsigned num_sets = 256, unsigned num_ways = 4);

    /** Find the condition entry for (addr, value); null on miss. */
    Entry *find(mem::Addr addr, mem::MemValue value, bool addr_only);

    /**
     * Allocate an entry for (addr, value). Returns null when the set
     * is full — the caller spills to the Monitor Log.
     */
    Entry *insert(mem::Addr addr, mem::MemValue value, bool addr_only,
                  sim::Tick now);

    /** Invalidate an entry (its waiters must already be drained). */
    void remove(Entry *entry);

    /**
     * The youngest (most recently created) valid entry in the set
     * that (addr, value) maps to; null when the set is empty. Used by
     * the evict-youngest spill policy.
     */
    Entry *youngestInSet(mem::Addr addr, mem::MemValue value,
                         bool addr_only);

    /** Visit every valid condition on @p addr. */
    template <typename Fn>
    void
    forEachOnAddr(mem::Addr addr, Fn &&fn)
    {
        auto range = addrIndex.equal_range(addr);
        // Collect first: fn may remove entries and mutate the index.
        std::vector<Entry *> matches;
        for (auto it = range.first; it != range.second; ++it)
            matches.push_back(it->second);
        for (Entry *e : matches) {
            if (e->valid && e->addr == addr)
                fn(*e);
        }
    }

    /** Number of valid conditions on @p addr. */
    unsigned numConditionsOn(mem::Addr addr) const;

    unsigned numValid() const { return validCount; }
    unsigned maxValid() const { return maxValidCount; }
    unsigned capacity() const { return sets * ways; }

    /**
     * Hardware bits of the condition cache plus waiting-WG list, per
     * the paper's accounting (26112 bits for the default geometry).
     */
    std::uint64_t hardwareBits(unsigned waiting_list_capacity) const;

  private:
    std::size_t setOf(mem::Addr addr, mem::MemValue value,
                      bool addr_only) const;

    unsigned sets;
    unsigned ways;
    unsigned log2Entries;
    UniversalHash hasher;
    std::vector<Entry> entries;
    std::unordered_multimap<mem::Addr, Entry *> addrIndex;
    unsigned validCount = 0;
    unsigned maxValidCount = 0;
};

} // namespace ifp::syncmon

#endif // IFP_SYNCMON_CONDITION_CACHE_HH
