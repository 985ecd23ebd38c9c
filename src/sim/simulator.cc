#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace draid::sim {

void
Simulator::schedule(Ticks delay, EventFn fn)
{
    assert(delay >= Ticks::zero());
    scheduleAt(now_ + delay, nullptr, std::move(fn));
}

void
Simulator::schedule(Ticks delay, const char *label, EventFn fn)
{
    assert(delay >= Ticks::zero());
    scheduleAt(now_ + delay, label, std::move(fn));
}

void
Simulator::scheduleAt(Ticks when, EventFn fn)
{
    scheduleAt(when, nullptr, std::move(fn));
}

void
Simulator::scheduleAt(Ticks when, const char *label, EventFn fn)
{
    assert(when >= now_);
    push(when, seq_++, label, std::move(fn));
}

void
Simulator::scheduleReserved(Ticks when, std::uint64_t seq, const char *label,
                            EventFn fn)
{
    // A reserved number sorts ahead of events already drained into the
    // current batch, so it must not land on the current tick.
    assert(when > now_);
    assert(seq < seq_);
    push(when, seq, label, std::move(fn));
}

void
Simulator::push(Ticks when, std::uint64_t seq, const char *label, EventFn fn)
{
    heap_.push_back(Event{when, seq, label, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
    if (engineObserver_)
        engineObserver_->onSchedule(when, label, pendingEvents());
}

void
Simulator::drainTick(Ticks when)
{
    const std::size_t heap_before = heap_.size();
    while (!heap_.empty() && heap_.front().when == when) {
        std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
        batch_.push_back(std::move(heap_.back()));
        heap_.pop_back();
    }
    if (engineObserver_)
        engineObserver_->onBatchDrain(when, batch_.size(), heap_before);
}

void
Simulator::execute(Event &ev)
{
    ++executed_;
    if (engineObserver_) {
        engineObserver_->onEventStart(now_, ev.label);
        ev.fn();
        engineObserver_->onEventEnd();
    } else {
        ev.fn();
    }
    // Release the closure eagerly: the batch slot stays alive until the
    // whole batch retires, and closures can pin buffers.
    ev.fn = nullptr;
}

void
Simulator::advanceTo(Ticks when)
{
    assert(when >= now_);
    const bool advanced = when > now_;
    now_ = when;
    if (advanced && clockObserver_)
        clockObserver_(now_);
}

void
Simulator::run()
{
    assert(!running_);
    running_ = true;
    stopped_ = false;
    if (engineObserver_)
        engineObserver_->onRunStart();
    while (!stopped_) {
        if (batchPos_ >= batch_.size()) {
            batch_.clear();
            batchPos_ = 0;
            if (heap_.empty())
                break;
            advanceTo(heap_.front().when);
            drainTick(now_);
        }
        execute(batch_[batchPos_++]);
    }
    if (engineObserver_)
        engineObserver_->onRunEnd();
    running_ = false;
}

void
Simulator::runUntil(Ticks deadline)
{
    assert(!running_);
    running_ = true;
    stopped_ = false;
    if (engineObserver_)
        engineObserver_->onRunStart();
    while (!stopped_) {
        if (batchPos_ >= batch_.size()) {
            batch_.clear();
            batchPos_ = 0;
            if (heap_.empty() || heap_.front().when > deadline)
                break;
            advanceTo(heap_.front().when);
            drainTick(now_);
        } else if (now_ > deadline) {
            // Batch left over from a stop() at a tick past this deadline
            // (possible when resuming with an earlier deadline): the
            // events stay pending, exactly as heap events past the
            // deadline would.
            break;
        } else {
            execute(batch_[batchPos_++]);
            continue;
        }
        // Freshly drained batch: fall through to the next iteration so
        // the now_ <= deadline guard applies uniformly.
    }
    if (!stopped_ && batchPos_ >= batch_.size() && now_ < deadline)
        advanceTo(deadline);
    if (engineObserver_)
        engineObserver_->onRunEnd();
    running_ = false;
}

} // namespace draid::sim
