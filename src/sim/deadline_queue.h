/**
 * @file
 * Constant-delay deadlines (paper §5.4): every operation gets the same
 * upper bound on its run time, and one that passes it raises an explicit
 * event at its owner.
 *
 * Because every deadline has the same delay, arm order is expiry order:
 * the queue is a FIFO, and only its head has an engine event. Tens of
 * thousands of in-flight operations therefore cost one pending event,
 * not one each, and nothing is ever cancelled — an entry whose operation
 * already finished is skipped when it reaches the head.
 */

#ifndef DRAID_SIM_DEADLINE_QUEUE_H
#define DRAID_SIM_DEADLINE_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/types.h"

namespace draid::sim {

/**
 * The owner of the ids armed in a DeadlineQueue. It keeps its in-flight
 * operations itself; the queue only asks about them at expiry.
 */
class DeadlineClient
{
  public:
    /** True while @p id has not completed (its deadline still counts). */
    virtual bool inFlight(std::uint64_t id) const = 0;

    /**
     * @p id passed its deadline; called only while inFlight(@p id). Fail
     * it; this may arm new deadlines (a retry).
     */
    virtual void expire(std::uint64_t id) = 0;

  protected:
    ~DeadlineClient() = default;
};

/**
 * One per cluster. Contract:
 * - Every entry expires exactly the construction-time delay after its
 *   arm() call.
 * - Ties keep arm-time order: arm() reserves the engine's next FIFO
 *   sequence number, and the head event fires with the number of the
 *   entry it was scheduled for. So entries armed in one tick expire in
 *   arm order and keep their place among same-tick engine events.
 *   Entries due together expire in that one head event.
 * - A drained run() ends on the last entry's expiry: with no live entry
 *   left, the head event still fires there, so a run's end tick does not
 *   depend on which operations completed in time.
 */
class DeadlineQueue
{
  public:
    /** @pre delay > zero */
    DeadlineQueue(Simulator &sim, Ticks delay);
    DeadlineQueue(const DeadlineQueue &) = delete;
    DeadlineQueue &operator=(const DeadlineQueue &) = delete;

    /**
     * Arm a deadline for @p id of @p client, one delay from now. @p label
     * tags the head event for the engine profiler (a string literal).
     */
    void arm(DeadlineClient &client, std::uint64_t id, const char *label);

  private:
    struct Entry
    {
        Ticks expiry;
        std::uint64_t seq; ///< engine FIFO number reserved at arm time
        std::uint64_t id;
        DeadlineClient *client;
        const char *label;
    };

    /** Head event: expire the due entries, then schedule the next head. */
    void onHead();

    /**
     * Drop finished entries ahead of the first live one (keeping at
     * least the last entry) and schedule the head event for the front.
     */
    void scheduleHead();

    bool empty() const { return head_ == entries_.size(); }
    const Entry &front() const { return entries_[head_]; }

    /** Consume the front; compact once half of entries_ is consumed. */
    void popFront();

    static constexpr std::size_t kCompactAfter = 1024;

    Simulator &sim_;
    Ticks delay_;
    // The live FIFO is entries_[head_..]. Not a std::deque: its block
    // allocation and release every few entries, interleaved with
    // MemoryBdev's page allocations, cost perfbench write128k-r6 about
    // 12% of its setup time and 2 MB of peak RSS (4-core x86 host).
    // draid-lint: cap(in-flight operations of one cluster; compacted as they expire)
    std::vector<Entry> entries_;
    std::size_t head_ = 0;
    bool headPending_ = false;
};

} // namespace draid::sim

#endif // DRAID_SIM_DEADLINE_QUEUE_H
