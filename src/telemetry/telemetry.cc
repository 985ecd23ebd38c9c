#include "telemetry/telemetry.h"

#include <cassert>
#include <cstdio>
#include <fstream>
#include <utility>

namespace draid::telemetry {

void
Telemetry::finishOp(std::uint64_t trace, const char *name, sim::NodeId node,
                    sim::Ticks start, sim::Ticks end, std::uint64_t bytes,
                    Histogram *lat_us)
{
    if (lat_us)
        lat_us->observe(static_cast<double>((end - start).raw()) /
                        sim::kMicrosecond);
    // Capture the tenant before noteOpComplete releases the binding.
    const TenantId tenant = contention_.tenantOf(trace);
    if (contention_.enabled())
        contention_.noteOpComplete(trace, end.raw(), (end - start).raw(),
                                   bytes);
    if (trace == 0 || !tracer_.active())
        return;
    // Root op span: routes through the op-completion path (streaming
    // aggregator sink + tail-exemplar reservoir) before retention.
    tracer_.recordOpCompletion({.traceId = trace,
                                .node = node,
                                .lane = "op",
                                .name = name,
                                .start = start.raw(),
                                .end = end.raw(),
                                .tenant = tenant,
                                .args = {{"bytes", bytes}}});
}

void
UtilizationSampler::addSource(sim::NodeId node, std::string name,
                              std::function<sim::Ticks()> busy)
{
    sources_.push_back(
        Source{node, std::move(name), std::move(busy), sim::Ticks::zero()});
}

void
UtilizationSampler::start(sim::Simulator &sim, sim::Ticks interval,
                          Tracer *tracer)
{
    assert(interval > sim::Ticks::zero());
    interval_ = interval;
    lastEmit_ = sim.now();
    nextSample_ = sim.now() + interval;
    tracer_ = tracer;
    for (auto &src : sources_)
        src.lastBusy = src.busy();
    sim.setClockObserver([this](sim::Ticks now) { onClockAdvance(now); });
}

void
UtilizationSampler::onClockAdvance(sim::Ticks now)
{
    if (interval_ <= sim::Ticks::zero() || now < nextSample_)
        return;
    // One sample per advance, stamped at the greatest interval boundary
    // <= now, covering the whole window since the previous emission. The
    // busy counters include committed (future) occupancy, so clamp.
    const sim::Ticks boundary =
        nextSample_ + ((now - nextSample_) / interval_) * interval_;
    ++rounds_;
    if (emitStride_ > 1 && (rounds_ - 1) % emitStride_ != 0) {
        // Skipped boundary: no emission, but the window since lastEmit_
        // keeps accumulating, so the next emitted round covers it.
        droppedSamples_ += sources_.size();
        nextSample_ = boundary + interval_;
        return;
    }
    if (!sources_.empty() &&
        samples_.size() + sources_.size() > sampleCap_)
        mergeSampleRounds();
    const sim::Ticks window = boundary - lastEmit_;
    for (auto &src : sources_) {
        const sim::Ticks busyNow = src.busy();
        double frac =
            window > sim::Ticks::zero()
                ? static_cast<double>((busyNow - src.lastBusy).raw()) /
                      static_cast<double>(window.raw())
                : 0.0;
        if (frac > 1.0)
            frac = 1.0;
        src.lastBusy = busyNow;
        samples_.push_back(Sample{src.node, src.name, boundary.raw(), frac});
        if (tracer_ && tracer_->enabled())
            tracer_->recordCounter(src.node, src.name, boundary.raw(), frac);
    }
    lastEmit_ = boundary;
    nextSample_ = boundary + interval_;
}

void
UtilizationSampler::mergeSampleRounds()
{
    // Samples arrive in whole rounds of sources_.size(); merge adjacent
    // round pairs (mean value over the doubled window, stamped at the
    // later boundary) and skip every 2nd future boundary to match.
    const std::size_t perRound = sources_.size();
    const std::size_t numRounds = samples_.size() / perRound;
    if (numRounds < 2)
        return; // cap smaller than one round: nothing left to halve
    std::vector<Sample> merged;
    merged.reserve(samples_.size() / 2 + perRound);
    std::size_t r = 0;
    for (; r + 1 < numRounds; r += 2) {
        for (std::size_t s = 0; s < perRound; ++s) {
            Sample out = samples_[(r + 1) * perRound + s];
            out.value =
                (samples_[r * perRound + s].value + out.value) / 2.0;
            merged.push_back(std::move(out));
        }
        droppedSamples_ += perRound;
    }
    for (; r < numRounds; ++r) { // odd trailing round survives as-is
        for (std::size_t s = 0; s < perRound; ++s)
            merged.push_back(std::move(samples_[r * perRound + s]));
    }
    samples_ = std::move(merged);
    emitStride_ *= 2;
}

std::uint64_t
UtilizationSampler::retainedBytes() const
{
    std::uint64_t bytes = 0;
    for (const Sample &s : samples_)
        bytes += sizeof(Sample) + s.name.size();
    return bytes;
}

void
Telemetry::writeMetricsJson(std::ostream &os) const
{
    os << "{\"metrics\":";
    metrics_.writeJson(os);
    os << ",\"timelines\":[";
    // Samples are interleaved per window in source order; regroup them into
    // one series per (node, name), in first-seen order.
    const auto &samples = sampler_.samples();
    std::vector<std::pair<sim::NodeId, std::string>> series;
    for (const auto &s : samples) {
        auto key = std::make_pair(s.node, s.name);
        bool seen = false;
        for (const auto &k : series)
            seen = seen || k == key;
        if (!seen)
            series.push_back(std::move(key));
    }
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"node\":" << series[i].first << ",\"name\":";
        writeJsonString(os, series[i].second);
        os << ",\"samples\":[";
        bool firstSample = true;
        for (const auto &s : samples) {
            if (s.node != series[i].first || s.name != series[i].second)
                continue;
            if (!firstSample)
                os << ",";
            firstSample = false;
            char buf[48];
            std::snprintf(buf, sizeof(buf), "[%lld,%.4f]",
                          static_cast<long long>(s.tick), s.value);
            os << buf;
        }
        os << "]}";
    }
    os << "]}";
}

std::uint64_t
Telemetry::retainedTelemetryBytes() const
{
    return tracer_.retainedBytes() + exemplars_.retainedBytes() +
           sampler_.retainedBytes() + contention_.retainedBytes() +
           recorder_.size() * sizeof(FlightRecorder::Record) +
           journal_.size() * sizeof(EventJournal::Event);
}

bool
Telemetry::saveMetricsJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeMetricsJson(out);
    out << "\n";
    return static_cast<bool>(out);
}

bool
Telemetry::saveChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    tracer_.writeChromeTrace(out);
    out << "\n";
    return static_cast<bool>(out);
}

} // namespace draid::telemetry
