#include "raid/stripe_lock.h"

#include <cassert>
#include <utility>
#include <vector>

namespace draid::raid {

void
StripeLockTable::acquire(std::uint64_t stripe, Grant granted)
{
    request(stripe, std::move(granted), false);
}

void
StripeLockTable::acquireShared(std::uint64_t stripe, Grant granted)
{
    request(stripe, std::move(granted), true);
}

void
StripeLockTable::request(std::uint64_t stripe, Grant granted, bool shared)
{
    auto &st = locks_[stripe];
    // Holders exist only while nobody waits, or the last release would
    // have granted the head; so an empty queue is the FIFO condition.
    if (st.holders == 0 || (shared && st.shared && st.waiters.empty())) {
        ++st.holders;
        st.shared = shared;
        granted();
        return;
    }
    ++contended_;
    st.waiters.push_back(Waiter{std::move(granted), shared});
    // Two or more ops queued behind the holders is a convoy forming; one
    // waiter is routine serialization.
    if (journal_ && st.waiters.size() >= 2) {
        journal_->record(telemetry::EventType::kStripeLockConvoy,
                         journalNode_, now_ ? now_() : 0, stripe,
                         st.waiters.size());
    }
}

void
StripeLockTable::bindJournal(telemetry::EventJournal *journal,
                             sim::NodeId node, std::function<sim::Tick()> now)
{
    journal_ = journal;
    journalNode_ = node;
    now_ = std::move(now);
}

void
StripeLockTable::release(std::uint64_t stripe)
{
    auto it = locks_.find(stripe);
    assert(it != locks_.end() && it->second.holders > 0);
    auto &st = it->second;
    if (--st.holders > 0)
        return; // other shared holders remain
    if (st.waiters.empty()) {
        locks_.erase(it);
        return;
    }
    // The lock stays held; ownership transfers to the head waiter, and a
    // shared head brings the consecutive shared waiters behind it. Update
    // the state before running any grant: a grant may re-enter the table.
    Waiter head = std::move(st.waiters.front());
    st.waiters.pop_front();
    std::vector<Grant> joined;
    while (head.shared && !st.waiters.empty() && st.waiters.front().shared) {
        joined.push_back(std::move(st.waiters.front().grant));
        st.waiters.pop_front();
    }
    st.shared = head.shared;
    st.holders = 1 + static_cast<std::uint32_t>(joined.size());
    head.grant();
    for (auto &g : joined)
        g();
}

bool
StripeLockTable::isLocked(std::uint64_t stripe) const
{
    auto it = locks_.find(stripe);
    return it != locks_.end() && it->second.holders > 0;
}

} // namespace draid::raid
