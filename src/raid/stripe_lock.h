/**
 * @file
 * Per-stripe shared/exclusive locks with one FIFO queue per stripe.
 *
 * RAID does not allow concurrent writes to the same stripe; the host-side
 * controller admits one write per stripe at a time and queues the rest
 * (§3). Writers take the lock exclusive. dRAID's degraded reads take it
 * shared: a reconstruction XORs survivors and parity, so it must not
 * overlap a write to the same stripe, but concurrent degraded reads may
 * overlap each other. Normal dRAID reads stay lock-free (§8); the SPDK
 * baseline takes the exclusive lock for normal reads too (the POC
 * behaviour the paper's §8 optimization removes).
 */

#ifndef DRAID_RAID_STRIPE_LOCK_H
#define DRAID_RAID_STRIPE_LOCK_H

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "sim/types.h"
#include "telemetry/event_journal.h"

namespace draid::raid {

/**
 * FIFO shared/exclusive lock table keyed by stripe index.
 *
 * Grants follow request order: a shared request joins the current
 * holders only when they are shared and nobody is queued, so a queued
 * writer is never starved by a stream of readers.
 */
class StripeLockTable
{
  public:
    using Grant = std::function<void()>;

    /**
     * Acquire the lock on @p stripe exclusively. @p granted runs
     * immediately (same call stack) if the lock is free, otherwise when
     * released to this waiter.
     */
    void acquire(std::uint64_t stripe, Grant granted);

    /**
     * Acquire the lock on @p stripe shared: granted at once while the
     * holders are shared and nobody waits, otherwise queued like acquire().
     */
    void acquireShared(std::uint64_t stripe, Grant granted);

    /**
     * Release one hold on @p stripe. When the last holder leaves, the
     * head waiter is granted (its callback runs inside this call); a
     * shared head brings every consecutive shared waiter behind it.
     * @pre the lock is held
     */
    void release(std::uint64_t stripe);

    /** Whether @p stripe is currently locked. */
    bool isLocked(std::uint64_t stripe) const;

    /** Number of stripes currently locked. */
    std::size_t locksHeld() const { return locks_.size(); }

    /** Total grants that had to wait (contention counter). */
    std::uint64_t contendedAcquires() const { return contended_; }

    /**
     * Attach the cluster event journal: a StripeLockConvoy record is
     * emitted (as node @p node) whenever a stripe accumulates two or more
     * queued waiters (of either mode) behind the holders. The table holds
     * no clock, so the owner supplies @p now. Observe-only.
     */
    void bindJournal(telemetry::EventJournal *journal, sim::NodeId node,
                     std::function<sim::Tick()> now);

  private:
    struct Waiter
    {
        Grant grant;
        bool shared;
    };

    struct LockState
    {
        std::uint32_t holders = 0; ///< one exclusive, or n shared
        bool shared = false;       ///< mode of the current holders
        // draid-lint: cap(ops queued on one stripe; host queue depth)
        std::deque<Waiter> waiters;
    };

    void request(std::uint64_t stripe, Grant granted, bool shared);

    // draid-lint: cap(live locked stripes; erased on release)
    std::unordered_map<std::uint64_t, LockState> locks_;
    std::uint64_t contended_ = 0;
    telemetry::EventJournal *journal_ = nullptr;
    sim::NodeId journalNode_ = 0;
    std::function<sim::Tick()> now_;
};

} // namespace draid::raid

#endif // DRAID_RAID_STRIPE_LOCK_H
