#include "telemetry/critical_path.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace draid::telemetry {

namespace {

/** Ticks are nanoseconds; summaries report microseconds. */
double
toUs(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kMicrosecond);
}

/** Nearest-rank percentile of an already-sorted tick sample vector. */
double
percentileUs(const std::vector<sim::Tick> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double rank = pct / 100.0 * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank)
        ++idx; // ceil
    if (idx > 0)
        --idx; // 1-based rank -> 0-based index
    idx = std::min(idx, sorted.size() - 1);
    return toUs(sorted[idx]);
}

/** A clamped resource span inside one op's window. */
struct Interval
{
    sim::Tick start;
    sim::Tick end;
    Phase phase;
};

/**
 * Max total duration over non-overlapping subsets (weighted interval
 * scheduling). Intervals may overlap arbitrarily across lanes.
 */
sim::Tick
longestChain(std::vector<Interval> ivs)
{
    if (ivs.empty())
        return 0;
    std::sort(ivs.begin(), ivs.end(),
              [](const Interval &a, const Interval &b) {
                  return a.end < b.end;
              });
    const std::size_t n = ivs.size();
    std::vector<sim::Tick> dp(n + 1, 0);
    std::vector<sim::Tick> ends(n);
    for (std::size_t i = 0; i < n; ++i)
        ends[i] = ivs[i].end;
    for (std::size_t i = 0; i < n; ++i) {
        // Last interval ending at or before this one's start.
        const auto it = std::upper_bound(ends.begin(),
                                         ends.begin() +
                                             static_cast<std::ptrdiff_t>(i),
                                         ivs[i].start);
        const std::size_t p =
            static_cast<std::size_t>(it - ends.begin());
        dp[i + 1] = std::max(dp[i],
                             dp[p] + (ivs[i].end - ivs[i].start));
    }
    return dp[n];
}

/** Exact partition of [start, end) across phases by boundary sweep. */
void
partition(sim::Tick start, sim::Tick end, const std::vector<Interval> &ivs,
          std::array<sim::Tick, kNumPhases> &out)
{
    std::vector<sim::Tick> bounds;
    bounds.reserve(2 * ivs.size() + 2);
    bounds.push_back(start);
    bounds.push_back(end);
    for (const Interval &iv : ivs) {
        bounds.push_back(iv.start);
        bounds.push_back(iv.end);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const sim::Tick lo = bounds[i];
        const sim::Tick hi = bounds[i + 1];
        Phase best = Phase::kQueue;
        for (const Interval &iv : ivs) {
            if (iv.start <= lo && iv.end >= hi && iv.phase > best)
                best = iv.phase;
        }
        out[static_cast<std::size_t>(best)] += hi - lo;
    }
}

/** Union length of a set of intervals (resource busy time). */
sim::Tick
unionLength(std::vector<std::pair<sim::Tick, sim::Tick>> ivs)
{
    if (ivs.empty())
        return 0;
    std::sort(ivs.begin(), ivs.end());
    sim::Tick total = 0;
    sim::Tick curLo = ivs.front().first;
    sim::Tick curHi = ivs.front().second;
    for (std::size_t i = 1; i < ivs.size(); ++i) {
        if (ivs[i].first > curHi) {
            total += curHi - curLo;
            curLo = ivs[i].first;
            curHi = ivs[i].second;
        } else {
            curHi = std::max(curHi, ivs[i].second);
        }
    }
    total += curHi - curLo;
    return total;
}

/** Lanes that model an occupiable resource (verdict candidates). */
bool
isResourceLane(std::string_view lane)
{
    return lane == "nic.tx" || lane == "nic.rx" || lane == "cpu" ||
           lane == "ssd";
}

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::kQueue:
        return "queue";
    case Phase::kLockWait:
        return "lock";
    case Phase::kFabric:
        return "fabric";
    case Phase::kNic:
        return "nic";
    case Phase::kCpu:
        return "cpu";
    case Phase::kReduce:
        return "reduce";
    case Phase::kSsd:
        return "ssd";
    }
    return "?";
}

Phase
classifySpan(const TraceSpan &span)
{
    const std::string_view lane(span.lane);
    if (lane == "ssd")
        return Phase::kSsd;
    if (lane == "cpu") {
        return std::string_view(span.name).starts_with("reduce.")
                   ? Phase::kReduce
                   : Phase::kCpu;
    }
    if (lane == "nic.tx" || lane == "nic.rx")
        return Phase::kNic;
    if (lane == "fabric")
        return Phase::kFabric;
    if (lane == "lock")
        return Phase::kLockWait;
    return Phase::kQueue;
}

CriticalPathReport
analyzeCriticalPath(const std::vector<TraceSpan> &spans)
{
    CriticalPathReport report;

    // Index the stream: roots in completion order, children by trace id.
    std::vector<const TraceSpan *> roots;
    std::unordered_map<std::uint64_t, std::vector<const TraceSpan *>>
        children;
    for (const TraceSpan &s : spans) {
        if (std::string_view(s.lane) == "op") {
            roots.push_back(&s);
        } else if (s.traceId != 0) {
            children[s.traceId].push_back(&s);
        }
    }

    // --- per-op exact breakdown + longest chain ---
    report.ops.reserve(roots.size());
    for (const TraceSpan *root : roots) {
        OpBreakdown op;
        op.traceId = root->traceId;
        op.name = root->name;
        op.start = root->start;
        op.end = root->end;

        std::vector<Interval> ivs;
        const auto it = children.find(root->traceId);
        if (it != children.end()) {
            for (const TraceSpan *c : it->second) {
                const Phase p = classifySpan(*c);
                if (p == Phase::kQueue)
                    continue; // "event", "rebuild": no phase lane
                const sim::Tick lo = std::max(c->start, op.start);
                const sim::Tick hi = std::min(c->end, op.end);
                if (hi > lo)
                    ivs.push_back(Interval{lo, hi, p});
            }
        }

        partition(op.start, op.end, ivs, op.phaseTicks);
        op.chainTicks = longestChain(std::move(ivs));
        report.ops.push_back(std::move(op));
    }

    // --- run window ---
    bool haveWindow = false;
    for (const OpBreakdown &op : report.ops) {
        if (!haveWindow) {
            report.windowStart = op.start;
            report.windowEnd = op.end;
            haveWindow = true;
        } else {
            report.windowStart = std::min(report.windowStart, op.start);
            report.windowEnd = std::max(report.windowEnd, op.end);
        }
    }

    // --- per-phase aggregates ---
    std::uint64_t grand = 0;
    std::array<std::vector<sim::Tick>, kNumPhases> samples;
    for (const OpBreakdown &op : report.ops) {
        for (std::size_t p = 0; p < kNumPhases; ++p)
            samples[p].push_back(op.phaseTicks[p]);
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        PhaseSummary &ps = report.phases[p];
        for (sim::Tick t : samples[p])
            ps.totalTicks += static_cast<std::uint64_t>(t);
        grand += ps.totalTicks;
        if (!samples[p].empty()) {
            ps.meanUs = toUs(static_cast<sim::Tick>(ps.totalTicks)) /
                        static_cast<double>(samples[p].size());
            std::sort(samples[p].begin(), samples[p].end());
            ps.p50Us = percentileUs(samples[p], 50.0);
            ps.p99Us = percentileUs(samples[p], 99.0);
        }
    }
    if (grand > 0) {
        for (PhaseSummary &ps : report.phases)
            ps.share = static_cast<double>(ps.totalTicks) /
                       static_cast<double>(grand);
    }

    // --- resource busy fractions over the run window ---
    // Every resource span counts, including ones from rootless traces
    // (rebuild traffic competes for the same NICs and SSDs). Spans are
    // clamped to the window; union-merged so overlap cannot overcount.
    std::map<std::pair<sim::NodeId, std::string>,
             std::vector<std::pair<sim::Tick, sim::Tick>>>
        byResource;
    sim::Tick spanLo = 0, spanHi = 0;
    bool haveSpanWindow = false;
    for (const TraceSpan &s : spans) {
        if (!isResourceLane(s.lane))
            continue;
        if (!haveSpanWindow) {
            spanLo = s.start;
            spanHi = s.end;
            haveSpanWindow = true;
        } else {
            spanLo = std::min(spanLo, s.start);
            spanHi = std::max(spanHi, s.end);
        }
        byResource[{s.node, std::string(s.lane)}].push_back(
            {s.start, s.end});
    }
    if (!haveWindow && haveSpanWindow) {
        report.windowStart = spanLo;
        report.windowEnd = spanHi;
    }
    const sim::Tick window = report.windowEnd - report.windowStart;
    for (auto &[key, ivs] : byResource) {
        for (auto &iv : ivs) {
            iv.first = std::max(iv.first, report.windowStart);
            iv.second = std::min(iv.second, report.windowEnd);
            if (iv.second < iv.first)
                iv.second = iv.first;
        }
        ResourceBusy rb;
        rb.node = key.first;
        rb.lane = key.second;
        rb.busyTicks = unionLength(std::move(ivs));
        rb.busyFraction = window > 0 ? static_cast<double>(rb.busyTicks) /
                                           static_cast<double>(window)
                                     : 0.0;
        report.resources.push_back(std::move(rb));
    }
    std::sort(report.resources.begin(), report.resources.end(),
              [](const ResourceBusy &a, const ResourceBusy &b) {
                  if (a.busyTicks != b.busyTicks)
                      return a.busyTicks > b.busyTicks;
                  if (a.node != b.node)
                      return a.node < b.node;
                  return a.lane < b.lane;
              });

    return report;
}

} // namespace draid::telemetry
