/**
 * @file
 * Telemetry facade: one object bundling the metrics registry, the per-op
 * tracer, and the utilization sampler, with file export helpers.
 *
 * A Cluster (or baseline rig) owns one Telemetry instance and hands
 * MetricScope views to its components. The bench harness flips the tracer
 * and sampler on when `--trace=` / `--metrics-json=` are passed and saves
 * the artifacts when the system under test is torn down.
 */

#ifndef DRAID_TELEMETRY_TELEMETRY_H
#define DRAID_TELEMETRY_TELEMETRY_H

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "telemetry/event_journal.h"
#include "telemetry/exemplar.h"
#include "telemetry/interference.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace draid::telemetry {

/**
 * Periodic sampler of busy fractions (NIC tx/rx, SSD channel, CPU core).
 *
 * Pull-based and observe-only: it installs a clock observer on the
 * Simulator, which fires as the run loop advances the clock. No events are
 * scheduled, so enabling the sampler cannot perturb event ordering — the
 * determinism guard test relies on this.
 */
class UtilizationSampler
{
  public:
    struct Sample
    {
        sim::NodeId node;
        std::string name; ///< e.g. "nic.tx.util"
        sim::Tick tick;
        double value; ///< busy fraction over the preceding window, [0,1]
    };

    /**
     * Register a busy-tick source. @p busy must return cumulative busy
     * ticks (monotone non-decreasing) and outlive the sampler.
     */
    void addSource(sim::NodeId node, std::string name,
                   std::function<sim::Ticks()> busy);

    /**
     * Begin sampling every @p interval ticks. Also mirrors samples into
     * @p tracer as Chrome "C" counter events when it is enabled.
     */
    void start(sim::Simulator &sim, sim::Ticks interval,
               Tracer *tracer = nullptr);

    bool started() const { return interval_ > sim::Ticks::zero(); }

    const std::vector<Sample> &samples() const { return samples_; }

    /** Sampler hook, exposed for tests; called by the clock observer. */
    void onClockAdvance(sim::Ticks now);

    /** Default bound on retained samples (all sources together). */
    static constexpr std::size_t kDefaultSampleCap = 65'536;

    /**
     * Bound on retained samples. Hitting it halves resolution instead of
     * truncating: retained rounds are merged pairwise (values averaged
     * over the doubled window) and every 2nd future boundary is skipped,
     * so coverage stays end-to-end and memory stays O(cap). The busy-tick
     * window math self-corrects across skipped boundaries (a skipped
     * round's busy ticks are charged to the next emitted window).
     */
    void setSampleCap(std::size_t cap)
    {
        sampleCap_ = cap == 0 ? 1 : cap;
    }
    /** Samples lost to round merging or boundary skipping. */
    std::uint64_t droppedSamples() const { return droppedSamples_; }
    /** Current boundary emit stride (1 until the cap is first hit). */
    std::uint64_t emitStride() const { return emitStride_; }

    /** Approximate heap bytes retained (size-based, deterministic). */
    std::uint64_t retainedBytes() const;

  private:
    struct Source
    {
        sim::NodeId node;
        std::string name;
        std::function<sim::Ticks()> busy;
        sim::Ticks lastBusy;
    };

    /** Merge retained rounds pairwise and double the emit stride. */
    void mergeSampleRounds();

    // draid-lint: cap(one entry per registered resource lane)
    std::vector<Source> sources_;
    // draid-lint: cap(sampleCap_; rounds merged pairwise on overflow)
    std::vector<Sample> samples_;
    sim::Ticks interval_;
    sim::Ticks nextSample_;
    sim::Ticks lastEmit_;
    std::size_t sampleCap_ = kDefaultSampleCap;
    std::uint64_t emitStride_ = 1;
    std::uint64_t rounds_ = 0; ///< interval boundaries reached
    std::uint64_t droppedSamples_ = 0;
    Tracer *tracer_ = nullptr;
};

/** The bundle a Cluster owns. */
class Telemetry
{
  public:
    /**
     * The flight recorder ships enabled: its ring write is cheap enough
     * to be always-on, and an abnormal event (abort, op timeout, failed
     * assertion) can then always produce a post-mortem.
     */
    Telemetry()
    {
        tracer_.bindFlightRecorder(&recorder_);
        tracer_.bindExemplars(&exemplars_);
        contention_.bindMetrics(&metrics_);
    }

    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }
    UtilizationSampler &sampler() { return sampler_; }
    const UtilizationSampler &sampler() const { return sampler_; }
    FlightRecorder &flightRecorder() { return recorder_; }
    const FlightRecorder &flightRecorder() const { return recorder_; }
    EventJournal &journal() { return journal_; }
    const EventJournal &journal() const { return journal_; }
    /** Tail-exemplar reservoir (disabled until the harness enables it). */
    ExemplarReservoir &exemplars() { return exemplars_; }
    const ExemplarReservoir &exemplars() const { return exemplars_; }
    /** Per-tenant contention attribution (disabled until enabled). */
    ContentionTracker &contention() { return contention_; }
    const ContentionTracker &contention() const { return contention_; }

    /**
     * Approximate heap bytes retained across every telemetry store
     * (tracer spans/counters/pending chains, exemplars, sampler rounds,
     * flight-recorder ring, journal ring). Size-based and a pure function
     * of recorded telemetry, so deterministic across runs — this is the
     * retained_bytes figure in the bench JSON's telemetry_overhead block.
     */
    std::uint64_t retainedTelemetryBytes() const;

    /**
     * Close a user op that ran over [start, end) on @p node: observe its
     * latency in @p lat_us (may be null), feed the contention tracker's
     * completion stats, and, when @p trace is sampled, record the root
     * "op" lane span through the tracer's op-completion path.
     */
    void finishOp(std::uint64_t trace, const char *name, sim::NodeId node,
                  sim::Ticks start, sim::Ticks end, std::uint64_t bytes,
                  Histogram *lat_us);

    /** Root scope; components derive their own via scope("node3") etc. */
    MetricScope root() { return MetricScope(metrics_, ""); }

    /**
     * Snapshot metrics + utilization timelines as one JSON object:
     * {"metrics":{...},"timelines":[{"node","name","samples":[[t,v],..]}]}.
     */
    void writeMetricsJson(std::ostream &os) const;

    /** Write the metrics snapshot to @p path. @return false on I/O error. */
    bool saveMetricsJson(const std::string &path) const;

    /** Write the Chrome trace to @p path. @return false on I/O error. */
    bool saveChromeTrace(const std::string &path) const;

  private:
    MetricsRegistry metrics_;
    Tracer tracer_;
    UtilizationSampler sampler_;
    FlightRecorder recorder_;
    EventJournal journal_;
    ExemplarReservoir exemplars_;
    ContentionTracker contention_;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_TELEMETRY_H
