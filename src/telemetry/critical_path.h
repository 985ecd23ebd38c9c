/**
 * @file
 * Critical-path analyzer: turns the span stream of a run into an exact
 * per-op latency breakdown and a per-run bottleneck verdict.
 *
 * For every completed user op (a root span on the "op" lane) the analyzer
 * partitions the op's latency window across phases — queueing, NIC
 * serialization, fabric propagation, server/host CPU, SSD channel, parity
 * reduce, stripe-lock wait — by sweeping the elementary intervals between
 * span boundaries and charging each to the highest-priority phase covering
 * it. The partition is exact by construction: the phase ticks of one op sum
 * to its measured latency, with no double counting even when spans overlap
 * (an SSD read under an in-flight NIC transfer counts once, as SSD).
 *
 * It also computes each op's longest *resource chain* — the maximum total
 * time of any non-overlapping subset of its resource spans (weighted
 * interval scheduling) — a lower bound on how fast the op could finish if
 * all queueing vanished, and, across the run, the per-(node, resource) busy
 * fraction over the run window, whose maximum is the bottleneck verdict:
 * the resource that bounds throughput.
 *
 * Pure function of recorded spans; never touches the simulator.
 */

#ifndef DRAID_TELEMETRY_CRITICAL_PATH_H
#define DRAID_TELEMETRY_CRITICAL_PATH_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"
#include "telemetry/trace.h"

namespace draid::telemetry {

/**
 * Latency phases, in partition priority order (later entries win an
 * overlapping elementary interval; kQueue is the uncovered remainder).
 */
enum class Phase : std::uint8_t
{
    kQueue = 0,   ///< no recorded activity: host queues, waitNum barriers
    kLockWait,    ///< stripe-lock wait behind another writer
    kFabric,      ///< wire + switch propagation
    kNic,         ///< NIC tx/rx serialization
    kCpu,         ///< host/server command handling
    kReduce,      ///< parity/reconstruction XOR-GF reduce
    kSsd,         ///< SSD channel occupancy
};

inline constexpr std::size_t kNumPhases = 7;

/** Short stable name: "queue", "lock", "fabric", "nic", "cpu", ... */
const char *phaseName(Phase p);

/** Exact latency partition of one completed op. */
struct OpBreakdown
{
    std::uint64_t traceId = 0;
    const char *name = ""; ///< root span name, e.g. "draid.write"
    sim::Tick start = 0;
    sim::Tick end = 0;

    /** Ticks charged to each phase; sums exactly to latency(). */
    std::array<sim::Tick, kNumPhases> phaseTicks{};

    /**
     * Longest resource chain: max total duration over non-overlapping
     * subsets of this op's resource spans. latency() - chainTicks is an
     * upper bound on what eliminating all waiting could save.
     */
    sim::Tick chainTicks = 0;

    sim::Tick latency() const { return end - start; }
    sim::Tick phase(Phase p) const
    {
        return phaseTicks[static_cast<std::size_t>(p)];
    }
};

/** Aggregate of one phase across every analyzed op. */
struct PhaseSummary
{
    std::uint64_t totalTicks = 0;
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** totalTicks / sum of all phases' totalTicks (share of latency). */
    double share = 0.0;
};

/** Busy time of one (node, resource-lane) over the run window. */
struct ResourceBusy
{
    sim::NodeId node = 0;
    std::string lane; ///< "nic.tx", "nic.rx", "cpu", "ssd"
    sim::Tick busyTicks = 0;
    double busyFraction = 0.0; ///< of the run window
};

/** Everything the analyzer derives from one run's span stream. */
struct CriticalPathReport
{
    // draid-lint: cap(one breakdown per root span; tracer spanCap_ bounds it)
    std::vector<OpBreakdown> ops; ///< completion (root-end) order
    std::array<PhaseSummary, kNumPhases> phases{};

    /** Run window: [earliest root start, latest root end]. */
    sim::Tick windowStart = 0;
    sim::Tick windowEnd = 0;

    /** Per-resource busy, sorted by descending busy fraction. */
    // draid-lint: cap(one row per resource lane; fixed topology)
    std::vector<ResourceBusy> resources;

    bool hasVerdict() const { return !resources.empty(); }
    /** The bottleneck: the busiest resource. @pre hasVerdict() */
    const ResourceBusy &bottleneck() const { return resources.front(); }

    const PhaseSummary &phase(Phase p) const
    {
        return phases[static_cast<std::size_t>(p)];
    }
};

/**
 * Analyze a span stream (typically Tracer::spans()). Spans without an "op"
 * root (rebuild stripes, orphaned ids) contribute to resource busy but not
 * to per-op breakdowns.
 */
CriticalPathReport analyzeCriticalPath(const std::vector<TraceSpan> &spans);

/** Classify one span's phase; kQueue if the lane carries no phase. */
Phase classifySpan(const TraceSpan &span);

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_CRITICAL_PATH_H
