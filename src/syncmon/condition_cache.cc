#include "syncmon/condition_cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace ifp::syncmon {

WaitingWgList::WaitingWgList(unsigned capacity)
    : nodes(capacity)
{
    ifp_assert(capacity > 0, "waiting list needs capacity");
    for (unsigned i = 0; i + 1 < capacity; ++i)
        nodes[i].next = static_cast<int>(i + 1);
    nodes[capacity - 1].next = -1;
    freeHead = 0;
}

int
WaitingWgList::allocate(const Waiter &waiter)
{
    if (freeHead < 0)
        return -1;
    int idx = freeHead;
    freeHead = nodes[idx].next;
    nodes[idx].waiter = waiter;
    nodes[idx].next = -1;
    nodes[idx].allocated = true;
    ++used;
    maxUsed = std::max(maxUsed, used);
    return idx;
}

void
WaitingWgList::release(int index)
{
    ifp_assert(index >= 0 &&
               static_cast<std::size_t>(index) < nodes.size(),
               "bad waiting-list index %d", index);
    ifp_assert(nodes[index].allocated, "double free in waiting list");
    nodes[index].allocated = false;
    nodes[index].next = freeHead;
    freeHead = index;
    ifp_assert(used > 0, "waiting list underflow");
    --used;
}

Waiter &
WaitingWgList::node(int index)
{
    ifp_assert(index >= 0 &&
               static_cast<std::size_t>(index) < nodes.size() &&
               nodes[index].allocated,
               "bad waiting-list access %d", index);
    return nodes[index].waiter;
}

int
WaitingWgList::next(int index) const
{
    ifp_assert(index >= 0 &&
               static_cast<std::size_t>(index) < nodes.size(),
               "bad waiting-list index %d", index);
    return nodes[index].next;
}

void
WaitingWgList::setNext(int index, int next_index)
{
    ifp_assert(index >= 0 &&
               static_cast<std::size_t>(index) < nodes.size(),
               "bad waiting-list index %d", index);
    nodes[index].next = next_index;
}

ConditionCache::ConditionCache(unsigned num_sets, unsigned num_ways)
    : sets(num_sets),
      ways(num_ways),
      log2Entries(std::bit_width(num_sets * num_ways) - 1),
      hasher(0x2545F4914F6CDD1DULL, 0x9E3779B9ULL),
      entries(num_sets * num_ways)
{
    ifp_assert((num_sets & (num_sets - 1)) == 0,
               "condition cache sets must be a power of two");
}

std::size_t
ConditionCache::setOf(mem::Addr addr, mem::MemValue value,
                      bool addr_only) const
{
    std::uint64_t key =
        addr_only ? (addr >> lineOffsetBits)
                  : conditionKey(addr, value, log2Entries);
    return static_cast<std::size_t>(hasher(key) % sets);
}

ConditionCache::Entry *
ConditionCache::find(mem::Addr addr, mem::MemValue value, bool addr_only)
{
    std::size_t set = setOf(addr, value, addr_only);
    for (unsigned way = 0; way < ways; ++way) {
        Entry &e = entries[set * ways + way];
        if (!e.valid || e.addr != addr || e.addrOnly != addr_only)
            continue;
        if (addr_only || e.value == value)
            return &e;
    }
    return nullptr;
}

ConditionCache::Entry *
ConditionCache::insert(mem::Addr addr, mem::MemValue value,
                       bool addr_only, sim::Tick now)
{
    std::size_t set = setOf(addr, value, addr_only);
    for (unsigned way = 0; way < ways; ++way) {
        Entry &e = entries[set * ways + way];
        if (e.valid)
            continue;
        e.valid = true;
        e.addr = addr;
        e.value = value;
        e.addrOnly = addr_only;
        e.head = -1;
        e.tail = -1;
        e.numWaiters = 0;
        e.createdTick = now;
        addrIndex.emplace(addr, &e);
        ++validCount;
        maxValidCount = std::max(maxValidCount, validCount);
        return &e;
    }
    return nullptr;  // set conflict: caller spills to the Monitor Log
}

void
ConditionCache::remove(Entry *entry)
{
    ifp_assert(entry && entry->valid, "removing invalid condition");
    ifp_assert(entry->numWaiters == 0,
               "removing condition with %u waiters", entry->numWaiters);
    auto range = addrIndex.equal_range(entry->addr);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second == entry) {
            addrIndex.erase(it);
            break;
        }
    }
    entry->valid = false;
    ifp_assert(validCount > 0, "condition count underflow");
    --validCount;
}

ConditionCache::Entry *
ConditionCache::youngestInSet(mem::Addr addr, mem::MemValue value,
                              bool addr_only)
{
    std::size_t set = setOf(addr, value, addr_only);
    Entry *youngest = nullptr;
    for (unsigned way = 0; way < ways; ++way) {
        Entry &e = entries[set * ways + way];
        if (!e.valid)
            continue;
        if (!youngest || e.createdTick > youngest->createdTick)
            youngest = &e;
    }
    return youngest;
}

unsigned
ConditionCache::numConditionsOn(mem::Addr addr) const
{
    auto range = addrIndex.equal_range(addr);
    unsigned n = 0;
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second->valid)
            ++n;
    }
    return n;
}

std::uint64_t
ConditionCache::hardwareBits(unsigned waiting_list_capacity) const
{
    // Per entry: two pointers into the waiting-WG list; per list
    // node: a next pointer plus WG-id/valid state. With the default
    // geometry (1024 entries, 512-entry list, 9-bit pointers) this
    // reproduces the paper's budget:
    //   1024 x 18 + 512 x 15 = 26112 bits (3.18 KB).
    std::uint64_t ptr_bits = std::bit_width(waiting_list_capacity - 1);
    std::uint64_t entry_bits = 2 * ptr_bits;
    std::uint64_t list_node_bits = ptr_bits + 6;
    return capacity() * entry_bits +
           waiting_list_capacity * list_node_bits;
}

} // namespace ifp::syncmon
