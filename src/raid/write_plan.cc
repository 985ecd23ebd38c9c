#include "raid/write_plan.h"

#include <algorithm>
#include <cassert>

namespace draid::raid {

std::uint64_t
StripeWritePlan::userBytes() const
{
    std::uint64_t total = 0;
    for (const auto &w : writes)
        total += w.length;
    return total;
}

std::vector<StripeWritePlan>
WritePlanner::plan(std::uint64_t offset, std::uint64_t length) const
{
    std::vector<StripeWritePlan> plans;
    const auto extents = geom_.map(offset, length);

    std::vector<WriteSegment> segs;
    std::uint64_t cur_stripe = extents.empty() ? 0 : extents.front().stripe;
    for (const auto &e : extents) {
        if (e.stripe != cur_stripe) {
            plans.push_back(planStripe(cur_stripe, std::move(segs)));
            segs.clear();
            cur_stripe = e.stripe;
        }
        segs.push_back(WriteSegment{e.dataIdx, e.offset, e.length});
    }
    if (!segs.empty())
        plans.push_back(planStripe(cur_stripe, std::move(segs)));
    return plans;
}

StripeWritePlan
WritePlanner::planStripe(std::uint64_t stripe,
                         std::vector<WriteSegment> segs) const
{
    assert(!segs.empty());
    StripeWritePlan p;
    p.stripe = stripe;
    p.writes = std::move(segs);
    std::sort(p.writes.begin(), p.writes.end(),
              [](const WriteSegment &a, const WriteSegment &b) {
                  return a.dataIdx < b.dataIdx;
              });

    const std::uint32_t k = geom_.dataChunks();
    const std::uint32_t pc = geom_.parityCount();
    const std::uint32_t chunk = geom_.chunkSize();
    const auto w = static_cast<std::uint32_t>(p.writes.size());

    const bool full_coverage =
        w == k && std::all_of(p.writes.begin(), p.writes.end(),
                              [chunk](const WriteSegment &s) {
                                  return s.offset == 0 && s.length == chunk;
                              });
    if (full_coverage) {
        p.mode = WriteMode::kFullStripe;
        p.parityOffset = 0;
        p.parityLength = chunk;
        p.waitNum = 0;
        return p;
    }

    // Byte-based mode rule (see class comment).
    std::uint64_t written_bytes = 0;
    std::uint32_t union_lo = chunk, union_hi = 0;
    for (const auto &s : p.writes) {
        written_bytes += s.length;
        union_lo = std::min(union_lo, s.offset);
        union_hi = std::max(union_hi, s.offset + s.length);
    }
    const std::uint64_t rmw_reads =
        written_bytes +
        static_cast<std::uint64_t>(pc) * (union_hi - union_lo);
    const std::uint64_t rcw_reads =
        static_cast<std::uint64_t>(k) * chunk - written_bytes;
    if (rmw_reads < rcw_reads) {
        forceRmw(p);
    } else {
        p.mode = WriteMode::kReconstructWrite;
        // Untouched data chunks are read whole and contribute to parity.
        std::vector<bool> touched(k, false);
        for (const auto &s : p.writes)
            touched[s.dataIdx] = true;
        for (std::uint32_t i = 0; i < k; ++i) {
            if (!touched[i])
                p.rcwReads.push_back(i);
        }
        p.parityOffset = 0;
        p.parityLength = chunk;
        p.waitNum = w + static_cast<std::uint32_t>(p.rcwReads.size());
    }
    return p;
}

void
WritePlanner::forceRmw(StripeWritePlan &plan) const
{
    assert(!plan.writes.empty());
    plan.mode = WriteMode::kReadModifyWrite;
    plan.rcwReads.clear();
    // Parity range = union of delta ranges.
    std::uint32_t lo = geom_.chunkSize(), hi = 0;
    for (const auto &s : plan.writes) {
        lo = std::min(lo, s.offset);
        hi = std::max(hi, s.offset + s.length);
    }
    plan.parityOffset = lo;
    plan.parityLength = hi - lo;
    plan.waitNum = static_cast<std::uint32_t>(plan.writes.size());
}

DegradedWritePlan
WritePlanner::planDegraded(StripeWritePlan &plan,
                           std::uint32_t failedDevice) const
{
    DegradedWritePlan d;
    const ChunkRole role = geom_.roleOf(plan.stripe, failedDevice);
    if (role == ChunkRole::kParityP && geom_.level() == RaidLevel::kRaid5) {
        d.kind = DegradedWriteKind::kParityLess;
        return d;
    }
    // One parity lost: the ordinary flow skips it. A full-stripe write
    // skips the failed data chunk the same way.
    if (role != ChunkRole::kData || plan.mode == WriteMode::kFullStripe)
        return d;

    const std::uint32_t fidx = geom_.dataIndexOf(plan.stripe, failedDevice);
    const auto written =
        std::find_if(plan.writes.begin(), plan.writes.end(),
                     [fidx](const WriteSegment &s) {
                         return s.dataIdx == fidx;
                     });
    if (written == plan.writes.end()) {
        d.kind = DegradedWriteKind::kForcedRmw;
        forceRmw(plan);
        return d;
    }

    d.kind = DegradedWriteKind::kTargeted;
    d.failedSeg = *written;
    d.failedPos = static_cast<std::size_t>(written - plan.writes.begin());
    plan.writes.erase(written);
    if (!plan.writes.empty()) {
        // The failed chunk is untouched in phase 1, so its unknown
        // content cancels out of the delta.
        d.phase1 = plan;
        forceRmw(*d.phase1);
    }
    return d;
}

} // namespace draid::raid
