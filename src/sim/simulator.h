/**
 * @file
 * Discrete-event simulator core: a virtual clock and an event queue.
 *
 * The simulator is single-threaded and fully deterministic: events that are
 * scheduled for the same tick fire in scheduling order (FIFO tie-break by a
 * monotonically increasing sequence number). There is deliberately no access
 * to wall-clock time anywhere in the simulation; host-time measurement of
 * the engine itself happens through the observe-only EngineObserver hook,
 * whose implementations live in src/telemetry/ (the only directory the
 * draid-lint wall-clock rule exempts).
 *
 * All simulated-time parameters and returns are the strong sim::Ticks type
 * (draid-lint rule tick-unit): a raw integer can never silently cross the
 * scheduling boundary with the wrong unit.
 */

#ifndef DRAID_SIM_SIMULATOR_H
#define DRAID_SIM_SIMULATOR_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.h"

namespace draid::sim {

/** An event callback. Fired exactly once at its scheduled tick. */
using EventFn = std::function<void()>;

/**
 * Observe-only hook into the engine's own machinery, mirroring the
 * clock-observer contract: implementations MUST NOT schedule events, call
 * run()/stop(), or otherwise mutate the simulation. The hooks exist so a
 * profiler (telemetry::SimProfiler) can attribute *host* wall-clock cost
 * to event sources without perturbing event order — simulated output must
 * be byte-identical whether an observer is installed or not.
 *
 * Labels passed to the hooks are the static strings given to the labeled
 * schedule()/scheduleAt() overloads; nullptr means the call site was not
 * tagged. The engine itself never reads host time: any clock access
 * belongs in the observer implementation under src/telemetry/.
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /** An event was pushed; @p pending counts events now queued. */
    virtual void onSchedule(Ticks when, const char *label,
                            std::size_t pending) = 0;

    /**
     * All events at tick @p when were just drained into the run batch.
     * @p batch is the same-tick batch size, @p heap_before the queue
     * depth immediately before the drain.
     */
    virtual void onBatchDrain(Ticks when, std::size_t batch,
                              std::size_t heap_before) = 0;

    /** Fired immediately before an event callback executes. */
    virtual void onEventStart(Ticks now, const char *label) = 0;

    /** Fired immediately after the event callback returns. */
    virtual void onEventEnd() = 0;

    /** run()/runUntil() entered. */
    virtual void onRunStart() = 0;

    /** run()/runUntil() returned. */
    virtual void onRunEnd() = 0;
};

/**
 * The discrete-event engine.
 *
 * All simulated components (pipes, CPU cores, NICs, SSDs, controllers) hold
 * a reference to one Simulator and schedule continuation callbacks on it.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Ticks now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * @pre delay >= zero
     */
    void schedule(Ticks delay, EventFn fn);

    /**
     * As above, tagged with a cost-attribution label for the engine
     * profiler. @p label must point at storage that outlives the event
     * (in practice: a string literal). The label has no effect on the
     * simulation; it only reaches the EngineObserver.
     */
    void schedule(Ticks delay, const char *label, EventFn fn);

    /**
     * Schedule @p fn to run at absolute tick @p when.
     * @pre when >= now()
     */
    void scheduleAt(Ticks when, EventFn fn);

    /** Labeled variant of scheduleAt(); see the labeled schedule(). */
    void scheduleAt(Ticks when, const char *label, EventFn fn);

    /**
     * Take the next FIFO sequence number now, for an event that is
     * pushed later with scheduleReserved(). The event then fires where
     * one scheduled at this moment would have: ahead of every same-tick
     * event scheduled after the reservation.
     */
    std::uint64_t reserveSeq() { return seq_++; }

    /**
     * Schedule @p fn at absolute tick @p when under sequence number
     * @p seq from reserveSeq(). Each reserved number is used at most once.
     * @pre when > now()
     */
    void scheduleReserved(Ticks when, std::uint64_t seq, const char *label,
                          EventFn fn);

    /**
     * Run until the event queue drains or stop() is called. Not
     * reentrant: events must not call run()/runUntil() themselves (use
     * stop() and resume from the driver instead; draid-lint rule
     * callback-discipline enforces this statically).
     */
    void run();

    /**
     * Run until the clock reaches @p deadline (inclusive of events at the
     * deadline tick) or the queue drains. The clock is advanced to
     * @p deadline even if the queue drains earlier.
     */
    void runUntil(Ticks deadline);

    /** Run for @p duration ticks from the current time. */
    void runFor(Ticks duration) { runUntil(now_ + duration); }

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopped_ = true; }

    /** Number of events executed so far (for tests and sanity checks). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Number of events currently pending (heap + undrained batch rest). */
    std::size_t pendingEvents() const
    {
        return heap_.size() + (batch_.size() - batchPos_);
    }

    /**
     * Install an observe-only hook fired whenever the clock advances to a
     * new tick (before the first event at that tick executes). Used by the
     * telemetry utilization sampler. The observer MUST NOT schedule events
     * or otherwise mutate the simulation — it exists precisely so that
     * sampling cannot perturb event ordering. Pass nullptr to remove.
     */
    void setClockObserver(std::function<void(Ticks)> fn)
    {
        clockObserver_ = std::move(fn);
    }

    /**
     * Install the engine profiling hook (see EngineObserver). Observe-only
     * under the same contract as the clock observer; the pointer must
     * outlive the simulator or be cleared with nullptr first.
     */
    void setEngineObserver(EngineObserver *observer)
    {
        engineObserver_ = observer;
    }

  private:
    struct Event
    {
        Ticks when;
        std::uint64_t seq;
        const char *label; ///< static attribution tag; may be nullptr
        EventFn fn;
    };

    struct EventOrder
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Push one event onto the heap and notify the observer. */
    void push(Ticks when, std::uint64_t seq, const char *label, EventFn fn);

    /**
     * Move every event at tick @p when from the heap into batch_ (in FIFO
     * seq order). Draining through pop_heap + vector::back lets the event
     * move out legally — no const_cast out of a priority_queue top — and
     * amortizes per-event pop cost across the same-tick batch.
     */
    void drainTick(Ticks when);

    /** Execute one drained event, bracketing it with the observer hooks. */
    void execute(Event &ev);

    /** Advance the clock to @p when, firing the clock observer. */
    void advanceTo(Ticks when);

    // draid-lint: cap(pending events; drained to batch_ every tick)
    std::vector<Event> heap_; ///< binary min-heap under EventOrder
    // draid-lint: cap(same-tick batch; cleared before every drain)
    std::vector<Event> batch_; ///< current same-tick batch, FIFO order
    std::size_t batchPos_ = 0; ///< next unexecuted event in batch_
    std::function<void(Ticks)> clockObserver_;
    EngineObserver *engineObserver_ = nullptr;
    Ticks now_;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stopped_ = false;
    bool running_ = false; ///< reentrancy guard (assert-only)
};

} // namespace draid::sim

#endif // DRAID_SIM_SIMULATOR_H
