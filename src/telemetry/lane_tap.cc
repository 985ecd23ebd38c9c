#include "telemetry/lane_tap.h"

#include "telemetry/interference.h"
#include "telemetry/trace.h"

namespace draid::telemetry {

void
LaneTap::onService(const sim::ServiceRecord &rec)
{
    const bool attributing = contention_ && contention_->enabled();
    if (attributing) {
        // FIFO service: [arrival, start) is exactly tiled by the occupancy
        // segments already recorded, so the blame split sums to the wait.
        contention_->attributeWait(res_, rec.trace, rec.arrival.raw(),
                                   rec.start.raw());
        contention_->noteOccupancy(res_, rec.trace, rec.start.raw(),
                                   rec.end.raw());
    }

    if (tracer_ && tracer_->active()) {
        tracer_->recordSpan(TraceSpan{
            .traceId = rec.trace,
            .node = node_,
            .lane = lane_ != nullptr ? lane_ : rec.what,
            .name = rec.what,
            .start = rec.start.raw(),
            .end = rec.end.raw(),
            .tenant = attributing ? contention_->tenantOf(rec.trace) : 0,
            .args = {withBytes_ ? SpanArg{"bytes", rec.bytes} : SpanArg{}},
        });
    }
}

} // namespace draid::telemetry
