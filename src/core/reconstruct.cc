#include "core/reconstruct.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "telemetry/trace.h"

namespace draid::core {

RebuildJob::RebuildJob(sim::Simulator &sim, StripeFn fn,
                       std::uint64_t num_stripes, std::uint32_t chunk_bytes,
                       int window)
    : sim_(sim),
      fn_(std::move(fn)),
      numStripes_(num_stripes),
      chunkBytes_(chunk_bytes),
      window_(window)
{
    assert(window_ > 0);
}

void
RebuildJob::start(std::function<void(bool)> done)
{
    onFinished_ = std::move(done);
    startTick_ = sim_.now();
    if (journal_) {
        journal_->record(telemetry::EventType::kRebuildStarted,
                         journalNode_, sim_.now().raw(), numStripes_, chunkBytes_);
    }
    if (numStripes_ == 0) {
        finished_ = true;
        endTick_ = sim_.now();
        if (journal_) {
            journal_->record(telemetry::EventType::kRebuildCompleted,
                             journalNode_, sim_.now().raw(), 0, 0);
        }
        if (onFinished_)
            onFinished_(true);
        return;
    }
    pump();
}

void
RebuildJob::bindTrace(telemetry::Tracer *tracer, sim::NodeId node)
{
    tracer_ = tracer;
    traceNode_ = node;
}

void
RebuildJob::bindJournal(telemetry::EventJournal *journal, sim::NodeId node)
{
    journal_ = journal;
    journalNode_ = node;
    progressStride_ = std::max<std::uint64_t>(numStripes_ / 8, 1);
}

void
RebuildJob::registerMetrics(telemetry::MetricScope scope)
{
    scope.probe("stripes_done", [this] { return done_; });
    scope.probe("failures", [this] { return failures_; });
    scope.probe("in_flight",
                [this] { return static_cast<std::uint64_t>(inFlight_); });
}

void
RebuildJob::pump()
{
    while (inFlight_ < window_ && next_ < numStripes_) {
        const std::uint64_t stripe = next_++;
        ++inFlight_;
        const bool traced = tracer_ && tracer_->active();
        const std::uint64_t trace = traced ? tracer_->mint() : 0;
        const sim::Ticks issued = sim_.now();
        fn_(stripe, [this, stripe, trace, issued](bool ok) {
            if (trace != 0 && tracer_ && tracer_->active()) {
                tracer_->recordSpan({.traceId = trace,
                                     .node = traceNode_,
                                     .lane = "rebuild",
                                     .name = "rebuild.stripe",
                                     .start = issued.raw(),
                                     .end = sim_.now().raw(),
                                     .args = {{"stripe", stripe},
                                              {"ok", ok ? 1u : 0u}}});
            }
            if (!ok && stripeFailed_)
                stripeFailed_(stripe);
            onStripeDone(ok);
        });
    }
}

void
RebuildJob::onStripeDone(bool ok)
{
    --inFlight_;
    ++done_;
    if (!ok)
        ++failures_;
    if (done_ == numStripes_) {
        finished_ = true;
        endTick_ = sim_.now();
        if (journal_) {
            journal_->record(telemetry::EventType::kRebuildCompleted,
                             journalNode_, sim_.now().raw(), done_, failures_);
        }
        if (onFinished_)
            onFinished_(failures_ == 0);
        return;
    }
    if (journal_ && progressStride_ > 0 && done_ % progressStride_ == 0) {
        journal_->record(telemetry::EventType::kRebuildProgress,
                         journalNode_, sim_.now().raw(), done_, numStripes_);
    }
    pump();
}

double
RebuildJob::throughputMBps() const
{
    const sim::Ticks dt = (finished_ ? endTick_ : sim_.now()) - startTick_;
    if (dt <= sim::Ticks::zero())
        return 0.0;
    return static_cast<double>(done_) * chunkBytes_ / sim::toSeconds(dt) /
           1e6;
}

} // namespace draid::core
