/**
 * @file
 * The Monitor Log: the paper's virtualization interface between the
 * SyncMon and the Command Processor.
 *
 * A circular buffer residing in global memory. Each entry holds the
 * monitored address, the waiting value and the waiting WG id. When the
 * SyncMon's condition cache or waiting-WG list reaches capacity, it
 * appends entries here; the CP periodically drains them into its own
 * lookup structure and checks the spilled conditions. When the log
 * itself is full, the failing waiting atomic does *not* enter a
 * waiting state — the WG keeps executing and retries (Mesa semantics)
 * until the CP frees entries.
 */

#ifndef IFP_CP_MONITOR_LOG_HH
#define IFP_CP_MONITOR_LOG_HH

#include <cstdint>
#include <optional>

#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ifp::cp {

/** One Monitor Log record. */
struct MonitorLogEntry
{
    mem::Addr addr = 0;
    mem::MemValue expected = 0;
    int wgId = -1;
};

/** Byte size of one log record in global memory. */
constexpr unsigned monitorLogEntryBytes = 24;

/** Circular buffer in global memory. */
class MonitorLog
{
  public:
    /**
     * @param base     address of the buffer in global memory
     * @param capacity number of entries
     * @param store    functional memory holding the buffer
     * @param l2       optional device to charge timing writes against
     * @param pool     request pool for the timing writes (required
     *                 when @p l2 is set)
     */
    MonitorLog(mem::Addr base, unsigned capacity,
               mem::BackingStore &store, mem::MemDevice *l2 = nullptr,
               mem::MemRequestPool *pool = nullptr);

    /** Append at the tail. @return false when the log is full. */
    bool append(const MonitorLogEntry &entry);

    /** Pop the head entry, if any. */
    std::optional<MonitorLogEntry> pop();

    /** Buffer base address in global memory. */
    mem::Addr baseAddr() const { return base; }

    bool empty() const { return count == 0; }
    bool full() const { return count == capacity; }
    unsigned size() const { return count; }
    unsigned maxSize() const { return maxCount; }
    unsigned freeEntries() const { return capacity - count; }
    std::uint64_t totalAppends() const { return appends; }
    std::uint64_t totalRejected() const { return rejected; }

  private:
    mem::Addr entryAddr(unsigned index) const
    {
        return base + static_cast<mem::Addr>(index) *
                          monitorLogEntryBytes;
    }

    mem::Addr base;
    unsigned capacity;
    mem::BackingStore &store;
    mem::MemDevice *l2;
    mem::MemRequestPool *pool;

    unsigned head = 0;
    unsigned tail = 0;
    unsigned count = 0;
    unsigned maxCount = 0;
    std::uint64_t appends = 0;
    std::uint64_t rejected = 0;
};

} // namespace ifp::cp

#endif // IFP_CP_MONITOR_LOG_HH
