#include "telemetry/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "telemetry/exemplar.h"
#include "telemetry/metrics.h"

namespace draid::telemetry {

namespace {

/** Monotonic host clock for self-timing. Wall-clock reads are legal in
 *  src/telemetry/ (lint-exempt) and never influence what is recorded. */
std::uint64_t
selfNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::uint64_t
TraceSpan::bytes() const
{
    for (const SpanArg &arg : args) {
        if (arg.key != nullptr && std::strcmp(arg.key, "bytes") == 0)
            return arg.value;
    }
    return 0;
}

void
Tracer::ingestSpan(const TraceSpan &span, bool completion)
{
    // Sub-spans of in-flight ops are buffered whenever an enabled
    // reservoir is bound — sampled or not, a tail op must keep its whole
    // chain. Spans arriving after their op completed extend the exemplar
    // directly (stragglers of non-kept ops are simply re-stashed and age
    // out of the bounded pending map).
    if (!completion && exemplars_ != nullptr && exemplars_->enabled() &&
        span.traceId != 0 && !exemplars_->appendIfHeld(span))
        stashPending(span);
    if (!enabled_)
        return;
    if (samplePeriod_ > 1 && !traceSampled(span.traceId, samplePeriod_)) {
        ++sampledOut_;
        return;
    }
    if (spans_.size() >= spanCap_) {
        ++dropped_;
        return;
    }
    spans_.push_back(span);
}

void
Tracer::recordSpan(const TraceSpan &span)
{
    const std::uint64_t t0 = selfTiming_ ? selfNowNs() : 0;
    if (recorder_)
        recorder_->record(span);
    ingestSpan(span, /*completion=*/false);
    if (selfTiming_) {
        ++spanCost_.calls;
        spanCost_.ns += selfNowNs() - t0;
    }
}

void
Tracer::recordOpCompletion(const TraceSpan &span)
{
    const std::uint64_t t0 = selfTiming_ ? selfNowNs() : 0;
    if (recorder_)
        recorder_->record(span);
    if (opSink_ != nullptr)
        opSink_->onOpComplete(span);
    if (exemplars_ != nullptr && exemplars_->enabled() &&
        span.traceId != 0) {
        std::vector<TraceSpan> chain;
        auto it = pendingChains_.find(span.traceId);
        if (it != pendingChains_.end()) {
            chain = std::move(it->second);
            pendingChains_.erase(it);
        }
        chain.push_back(span);
        exemplars_->offer(span, std::move(chain));
    }
    ingestSpan(span, /*completion=*/true);
    if (selfTiming_) {
        ++opCost_.calls;
        opCost_.ns += selfNowNs() - t0;
    }
}

void
Tracer::stashPending(const TraceSpan &span)
{
    pendingChains_[span.traceId].push_back(span);
    // Ids are minted in issue order, so the smallest pending id is the
    // oldest op — the one most likely already abandoned (e.g. rebuild
    // stripe ids that never see an op completion).
    while (pendingChains_.size() > kPendingOpCap)
        pendingChains_.erase(pendingChains_.begin());
}

void
Tracer::recordCounter(sim::NodeId node, std::string name, sim::Tick tick,
                      double value)
{
    if (!enabled_)
        return;
    const std::uint64_t t0 = selfTiming_ ? selfNowNs() : 0;
    const std::uint64_t seq = counterSeq_[{node, name}]++;
    bool kept = false;
    if (seq % counterStride_ == 0) {
        if (counters_.size() >= counterCap_)
            decimateCounters();
        if (counters_.size() < counterCap_) {
            counters_.push_back(
                CounterSample{node, std::move(name), tick, value});
            kept = true;
        }
    }
    if (!kept)
        ++droppedCounters_;
    if (selfTiming_) {
        ++counterCost_.calls;
        counterCost_.ns += selfNowNs() - t0;
    }
}

void
Tracer::decimateCounters()
{
    // Keep every 2nd retained sample per series, preserving each series'
    // first sample, so the survivors sit at arrival indices that are
    // multiples of the doubled stride — future seq % stride == 0 keeps
    // landing on the same lattice.
    std::map<std::pair<sim::NodeId, std::string>, std::uint64_t> keptIdx;
    std::vector<CounterSample> survivors;
    survivors.reserve(counters_.size() / 2 + 1);
    for (CounterSample &c : counters_) {
        const std::uint64_t idx = keptIdx[{c.node, c.name}]++;
        if (idx % 2 == 0)
            survivors.push_back(std::move(c));
        else
            ++droppedCounters_;
    }
    counters_ = std::move(survivors);
    counterStride_ *= 2;
}

std::uint64_t
Tracer::retainedBytes() const
{
    std::uint64_t spans = spans_.size();
    for (const auto &[id, chain] : pendingChains_)
        spans += chain.size();
    std::uint64_t bytes = spans * sizeof(TraceSpan);
    for (const CounterSample &c : counters_)
        bytes += sizeof(CounterSample) + c.name.size();
    return bytes;
}

void
Tracer::setNodeName(sim::NodeId node, std::string name)
{
    nodeNames_[node] = std::move(name);
}

void
Tracer::clear()
{
    spans_.clear();
    counters_.clear();
    counterSeq_.clear();
    pendingChains_.clear();
    dropped_ = 0;
    sampledOut_ = 0;
    droppedCounters_ = 0;
    counterStride_ = 1;
    spanCost_ = SelfCost{};
    opCost_ = SelfCost{};
    counterCost_ = SelfCost{};
    nextId_ = 1;
}

namespace {

/** Ticks (integer ns) -> Chrome ts (fractional microseconds). */
void
writeMicros(std::ostream &os, sim::Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", t / 1000,
                  static_cast<int>(t % 1000));
    os << buf;
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };

    // Stable small thread ids per (node, lane), in first-use order.
    std::map<std::pair<sim::NodeId, std::string>, int> tids;
    auto tidOf = [&tids](sim::NodeId node, const std::string &lane) {
        auto [it, inserted] =
            tids.emplace(std::make_pair(node, lane),
                         static_cast<int>(tids.size()) + 1);
        (void)inserted;
        return it->second;
    };
    for (const auto &s : spans_)
        tidOf(s.node, s.lane);

    // Process metadata: node names.
    for (const auto &[node, name] : nodeNames_) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << node
           << ",\"tid\":0,\"args\":{\"name\":";
        writeJsonString(os, name);
        os << "}}";
    }
    // Thread metadata: lane names.
    for (const auto &[key, tid] : tids) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << key.first
           << ",\"tid\":" << tid << ",\"args\":{\"name\":";
        writeJsonString(os, key.second);
        os << "}}";
    }

    // Truncation metadata: an exported trace that silently lost spans is
    // worse than no trace — surface cap drops and the sampling skim so a
    // viewer knows the stream is partial.
    if (dropped_ > 0 || droppedCounters_ > 0 || sampledOut_ > 0) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"trace_truncation\",\"pid\":0,"
           << "\"tid\":0,\"args\":{\"dropped_spans\":" << dropped_
           << ",\"dropped_counters\":" << droppedCounters_
           << ",\"sampled_out_spans\":" << sampledOut_
           << ",\"sample_period\":" << samplePeriod_ << "}}";
    }

    for (const auto &s : spans_) {
        sep();
        os << "{\"ph\":\"X\",\"name\":";
        writeJsonString(os, s.name);
        os << ",\"cat\":\"draid\",\"pid\":" << s.node
           << ",\"tid\":" << tidOf(s.node, s.lane) << ",\"ts\":";
        writeMicros(os, s.start);
        os << ",\"dur\":";
        writeMicros(os, s.end >= s.start ? s.end - s.start : 0);
        os << ",\"args\":{\"trace\":" << s.traceId;
        if (s.tenant != 0)
            os << ",\"tenant\":" << s.tenant;
        // Args export as quoted decimal strings, in slot order.
        for (const SpanArg &arg : s.args) {
            if (arg.key == nullptr)
                break;
            os << ",";
            writeJsonString(os, arg.key);
            os << ":\"" << arg.value << '"';
        }
        os << "}}";
    }

    for (const auto &c : counters_) {
        sep();
        os << "{\"ph\":\"C\",\"name\":";
        writeJsonString(os, c.name);
        os << ",\"pid\":" << c.node << ",\"tid\":0,\"ts\":";
        writeMicros(os, c.tick);
        os << ",\"args\":{\"value\":";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", c.value);
        os << buf << "}}";
    }

    os << "\n]}";
}

std::string
Tracer::toChromeTraceJson() const
{
    std::ostringstream oss;
    writeChromeTrace(oss);
    return oss.str();
}

} // namespace draid::telemetry
