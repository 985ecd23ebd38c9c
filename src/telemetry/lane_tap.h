/**
 * @file
 * LaneTap: the telemetry-side adapter for the sim::ServiceObserver seam.
 *
 * Every FIFO resource — the NIC pipes, the CPU cores and the SSD media
 * channel — reports each traced service commitment as a sim::ServiceRecord
 * without knowing telemetry exists; the resource's LaneTap turns the record
 * into a contention attribution and then a trace span.
 *
 * One LaneTap serves one resource. Style selects the span shape:
 *  - kPipe: lane = name = the resource's label, "bytes" span arg.
 *  - kCpu:  lane = "cpu", name = the work label, no payload arg.
 *  - kSsd:  lane = "ssd", name = the work label, "bytes" span arg.
 */

#ifndef DRAID_TELEMETRY_LANE_TAP_H
#define DRAID_TELEMETRY_LANE_TAP_H

#include <cstdint>

#include "sim/service.h"
#include "sim/types.h"

namespace draid::telemetry {

class ContentionTracker;
class Tracer;

/** Observe-only bridge from one FIFO resource into telemetry. */
class LaneTap final : public sim::ServiceObserver
{
  public:
    enum class Style
    {
        kPipe, ///< bandwidth lane: span lane/name = resource label
        kCpu,  ///< compute lane: span lane "cpu", name = work label
        kSsd,  ///< media lane: span lane "ssd", name = work label
    };

    explicit LaneTap(Style style = Style::kPipe)
        : lane_(style == Style::kCpu   ? "cpu"
                : style == Style::kSsd ? "ssd"
                                       : nullptr),
          withBytes_(style != Style::kCpu)
    {
    }

    /** Attach a span sink; spans land on node @p node. */
    void bindTrace(Tracer *tracer, sim::NodeId node)
    {
        tracer_ = tracer;
        node_ = node;
    }

    /** Attach a contention tracker under resource id @p res. */
    void bindContention(ContentionTracker *tracker, std::uint32_t res)
    {
        contention_ = tracker;
        res_ = res;
    }

    const Tracer *tracer() const { return tracer_; }
    const ContentionTracker *contention() const { return contention_; }

    void onService(const sim::ServiceRecord &rec) override;

  private:
    const char *lane_; ///< fixed span lane; nullptr = the record's label
    bool withBytes_;   ///< attach the record's bytes as a span arg
    Tracer *tracer_ = nullptr;
    sim::NodeId node_ = 0;
    ContentionTracker *contention_ = nullptr;
    std::uint32_t res_ = 0;
};

} // namespace draid::telemetry

#endif // DRAID_TELEMETRY_LANE_TAP_H
