#include "sim/deadline_queue.h"

#include <cassert>

namespace draid::sim {

DeadlineQueue::DeadlineQueue(Simulator &sim, Ticks delay)
    : sim_(sim), delay_(delay)
{
    assert(delay > Ticks::zero());
}

void
DeadlineQueue::arm(DeadlineClient &client, std::uint64_t id,
                   const char *label)
{
    entries_.push_back(
        Entry{sim_.now() + delay_, sim_.reserveSeq(), id, &client, label});
    if (!headPending_)
        scheduleHead();
}

void
DeadlineQueue::onHead()
{
    // headPending_ stays set until the next head is scheduled, so an
    // expire() that re-arms (a retry) only appends.
    while (!empty() && front().expiry <= sim_.now()) {
        const Entry e = front();
        popFront();
        if (e.client->inFlight(e.id))
            e.client->expire(e.id);
    }
    scheduleHead();
}

void
DeadlineQueue::scheduleHead()
{
    while (entries_.size() - head_ > 1 &&
           !front().client->inFlight(front().id))
        popFront();
    headPending_ = !empty();
    if (!headPending_)
        return;
    const Entry &head = front();
    sim_.scheduleReserved(head.expiry, head.seq, head.label,
                          [this]() { onHead(); });
}

void
DeadlineQueue::popFront()
{
    // Compact only after kCompactAfter pops, and only once the consumed
    // prefix is the larger half: a compaction then moves fewer entries
    // than were consumed since the last one, so a pop costs O(1)
    // amortized, and a queue that keeps a few entries live does not
    // compact on every pop.
    ++head_;
    if (head_ == entries_.size()) {
        entries_.clear();
        head_ = 0;
    } else if (head_ >= kCompactAfter && 2 * head_ >= entries_.size()) {
        entries_.erase(entries_.begin(),
                       entries_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

} // namespace draid::sim
