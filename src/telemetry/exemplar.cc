#include "telemetry/exemplar.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "telemetry/critical_path.h"

namespace draid::telemetry {

ExemplarReservoir::ExemplarReservoir(sim::Tick window_ticks,
                                     std::size_t per_window,
                                     std::size_t max_windows)
    : windowTicks_(std::max<sim::Tick>(window_ticks, 1)),
      perWindow_(std::max<std::size_t>(per_window, 1)),
      maxWindows_(std::max<std::size_t>(max_windows, 1))
{
}

bool
ExemplarReservoir::offer(const TraceSpan &root, std::vector<TraceSpan> chain)
{
    ++offered_;
    const std::int64_t idx =
        static_cast<std::int64_t>(root.end / windowTicks_);
    Window &win = windows_[idx];

    const sim::Tick latency = root.end - root.start;
    std::size_t slot = win.slots.size();
    if (win.slots.size() >= perWindow_) {
        // Displace only a strictly faster exemplar; on a latency tie the
        // incumbent (earlier completion, smaller id) wins, so the kept
        // set is order-independent for equal-latency ops.
        std::size_t fastest = 0;
        for (std::size_t i = 1; i < win.slots.size(); ++i) {
            const Exemplar &a = win.slots[i];
            const Exemplar &b = win.slots[fastest];
            if (a.latency() < b.latency() ||
                (a.latency() == b.latency() && a.traceId > b.traceId))
                fastest = i;
        }
        if (win.slots[fastest].latency() >= latency)
            return false;
        held_.erase(win.slots[fastest].traceId);
        ++evicted_;
        slot = fastest;
        win.slots[fastest] = Exemplar{};
    } else {
        win.slots.emplace_back();
    }

    Exemplar &ex = win.slots[slot];
    ex.traceId = root.traceId;
    ex.name = root.name;
    ex.start = root.start;
    ex.end = root.end;
    ex.bytes = root.bytes();
    ex.tenant = root.tenant;
    ex.chain = std::move(chain);
    held_[root.traceId] = {idx, slot};
    ++kept_;

    // Window budget: evict the oldest window whole. Keeping the newest
    // windows matches how the reservoir is consumed (the bench collects
    // the measured job's tick range, which is always the most recent).
    while (windows_.size() > maxWindows_) {
        auto oldest = windows_.begin();
        for (const Exemplar &e : oldest->second.slots) {
            held_.erase(e.traceId);
            ++evicted_;
        }
        windows_.erase(oldest);
        ++windowsEvicted_;
    }
    return held_.count(root.traceId) != 0;
}

bool
ExemplarReservoir::appendIfHeld(const TraceSpan &span)
{
    auto it = held_.find(span.traceId);
    if (it == held_.end())
        return false;
    auto win = windows_.find(it->second.first);
    if (win == windows_.end() ||
        it->second.second >= win->second.slots.size())
        return false;
    win->second.slots[it->second.second].chain.push_back(span);
    return true;
}

std::size_t
ExemplarReservoir::size() const
{
    return held_.size();
}

std::vector<const ExemplarReservoir::Exemplar *>
ExemplarReservoir::collect(sim::Tick from, sim::Tick to) const
{
    std::vector<const Exemplar *> out;
    for (const auto &[idx, win] : windows_) {
        for (const Exemplar &e : win.slots) {
            if (e.end >= from && e.end < to)
                out.push_back(&e);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const Exemplar *a, const Exemplar *b) {
                  if (a->latency() != b->latency())
                      return a->latency() > b->latency();
                  return a->traceId < b->traceId;
              });
    return out;
}

std::vector<const ExemplarReservoir::Exemplar *>
ExemplarReservoir::all() const
{
    std::vector<const Exemplar *> out;
    for (const auto &[idx, win] : windows_) {
        std::vector<const Exemplar *> ordered;
        for (const Exemplar &e : win.slots)
            ordered.push_back(&e);
        std::sort(ordered.begin(), ordered.end(),
                  [](const Exemplar *a, const Exemplar *b) {
                      if (a->latency() != b->latency())
                          return a->latency() > b->latency();
                      return a->traceId < b->traceId;
                  });
        out.insert(out.end(), ordered.begin(), ordered.end());
    }
    return out;
}

std::uint64_t
ExemplarReservoir::retainedBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &[idx, win] : windows_) {
        for (const Exemplar &e : win.slots) {
            bytes += sizeof(Exemplar) + e.chain.size() * sizeof(TraceSpan);
        }
    }
    return bytes;
}

void
ExemplarReservoir::clear()
{
    windows_.clear();
    held_.clear();
    offered_ = 0;
    kept_ = 0;
    evicted_ = 0;
    windowsEvicted_ = 0;
}

void
writeExemplarsJsonl(std::ostream &os, const ExemplarReservoir &res)
{
    char buf[256];
    for (const ExemplarReservoir::Exemplar *e : res.all()) {
        // Exact phase partition of just this op's chain; with one root op
        // the report's single breakdown is the op's.
        const CriticalPathReport report = analyzeCriticalPath(e->chain);
        std::snprintf(buf, sizeof(buf),
                      "{\"trace\":%" PRIu64 ",\"name\":\"%s\","
                      "\"tenant_id\":%u,"
                      "\"window_start\":%" PRId64 ",\"start\":%" PRId64
                      ",\"end\":%" PRId64 ",\"latency_us\":%.3f,"
                      "\"bytes\":%" PRIu64 ",\"spans\":%zu",
                      e->traceId, e->name, e->tenant,
                      (e->end / res.windowTicks()) * res.windowTicks(),
                      e->start, e->end,
                      static_cast<double>(e->latency()) / sim::kMicrosecond,
                      e->bytes, e->chain.size());
        os << buf;
        os << ",\"phase_us\":{";
        const char *dominant = phaseName(Phase::kQueue);
        sim::Tick dominantTicks = -1;
        bool first = true;
        if (!report.ops.empty()) {
            const OpBreakdown &op = report.ops.front();
            for (std::size_t p = 0; p < kNumPhases; ++p) {
                const sim::Tick t = op.phaseTicks[p];
                if (t > dominantTicks) {
                    dominantTicks = t;
                    dominant = phaseName(static_cast<Phase>(p));
                }
                if (t == 0)
                    continue;
                if (!first)
                    os << ",";
                first = false;
                std::snprintf(buf, sizeof(buf), "\"%s\":%.3f",
                              phaseName(static_cast<Phase>(p)),
                              static_cast<double>(t) / sim::kMicrosecond);
                os << buf;
            }
        }
        os << "},\"dominant\":\"" << dominant << "\"}\n";
    }
}

} // namespace draid::telemetry
