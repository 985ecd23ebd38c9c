/**
 * @file
 * MetricsRegistry: named counters, gauges and fixed-bucket histograms,
 * hierarchically scoped per component instance.
 *
 * Naming follows a dotted hierarchy rooted at the node, e.g.
 * `node3.nic.tx_bytes`, `node3.ssd.write_channel_busy_ticks`,
 * `host0.draid.degraded_reads`. Components obtain a MetricScope once at
 * construction and resolve metric objects up front, so the hot path is a
 * single integer add — cheap enough to stay on by default.
 *
 * Two kinds of sources feed the registry:
 *  - push metrics (Counter / Gauge / Histogram) owned by the registry and
 *    updated by components as events happen, and
 *  - probes: read-only callbacks sampled at snapshot time, which expose
 *    counters a component already maintains (Pipe::bytesTransferred(),
 *    CpuCore::busyTime(), ...) without duplicating their storage.
 *
 * The whole registry is observe-only: nothing here touches the simulator,
 * so snapshotting cannot perturb event ordering.
 */

#ifndef DRAID_TELEMETRY_METRICS_H
#define DRAID_TELEMETRY_METRICS_H

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace draid::telemetry {

/**
 * Write @p s as a JSON string literal, quotes included: '"', '\\', '\n'
 * and '\t' get short escapes and every other byte below 0x20 becomes
 * \u00XX, so the output is valid JSON for any input. The one escaper
 * behind every telemetry export.
 */
void writeJsonString(std::ostream &os, std::string_view s);

/** A monotonically increasing integer metric. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time numeric metric. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
 * implicit overflow bucket counts the rest. Bounds are set at creation
 * and never reallocate, so observe() is a linear scan over a handful of
 * doubles plus three adds.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double sample);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }
    double mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    /** Bucket upper bounds (excluding the implicit overflow bucket). */
    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket counts; size() == bounds().size() + 1 (overflow last). */
    const std::vector<std::uint64_t> &bucketCounts() const
    {
        return counts_;
    }

  private:
    // draid-lint: cap(bucket bounds; fixed at construction)
    std::vector<double> bounds_;
    // draid-lint: cap(bounds_.size() + 1; fixed at construction)
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Commonly useful latency bucket bounds, in microseconds. */
std::vector<double> latencyBucketsUs();

/**
 * The metric store. Metric objects are owned by the registry and their
 * addresses are stable for its lifetime (node-based map storage), so
 * components may cache the returned references.
 */
class MetricsRegistry
{
  public:
    /** Get or create the counter @p name. */
    Counter &counter(const std::string &name);

    /** Get or create the gauge @p name. */
    Gauge &gauge(const std::string &name);

    /**
     * Get or create the histogram @p name with @p bounds (ignored when
     * the histogram already exists).
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds);

    /**
     * Register a read-only probe sampled at snapshot time. Probes expose
     * counters a component already keeps, avoiding duplicated storage.
     * The callback must outlive the registry's use (components and the
     * registry share the owning Cluster's lifetime).
     */
    void probe(const std::string &name, std::function<double()> fn);

    bool hasCounter(const std::string &name) const;
    bool hasProbe(const std::string &name) const;

    /** Counter value by full name; 0 when absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Probe value by full name; 0 when absent. */
    double probeValue(const std::string &name) const;

    /** Full names of every metric and probe, sorted. */
    std::vector<std::string> names() const;

    /**
     * Snapshot everything as one JSON object:
     * {"counters":{...},"gauges":{...},"probes":{...},"histograms":{...}}.
     * std::map keeps the output deterministically sorted.
     */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;

  private:
    // draid-lint: cap(registered metric names; code-defined set)
    std::map<std::string, Counter> counters_;
    // draid-lint: cap(registered metric names; code-defined set)
    std::map<std::string, Gauge> gauges_;
    // draid-lint: cap(registered metric names; code-defined set)
    std::map<std::string, Histogram> histograms_;
    // draid-lint: cap(registered metric names; code-defined set)
    std::map<std::string, std::function<double()>> probes_;
};

/**
 * A dotted-prefix view of a registry, e.g. scope "node3" -> sub-scope
 * "nic" -> counter "tx_bytes" names `node3.nic.tx_bytes`.
 */
class MetricScope
{
  public:
    MetricScope(MetricsRegistry &registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix))
    {
    }

    MetricScope scope(const std::string &sub) const
    {
        return MetricScope(*registry_, qualify(sub));
    }

    Counter &counter(const std::string &name) const
    {
        return registry_->counter(qualify(name));
    }

    Gauge &gauge(const std::string &name) const
    {
        return registry_->gauge(qualify(name));
    }

    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds) const
    {
        return registry_->histogram(qualify(name), std::move(bounds));
    }

    void probe(const std::string &name, std::function<double()> fn) const
    {
        registry_->probe(qualify(name), std::move(fn));
    }

    const std::string &prefix() const { return prefix_; }
    MetricsRegistry &registry() const { return *registry_; }

  private:
    std::string qualify(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    MetricsRegistry *registry_;
    std::string prefix_;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_METRICS_H
