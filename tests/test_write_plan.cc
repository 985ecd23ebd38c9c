// Write planner: mode decisions (the §9.3 regime boundaries), plan
// structure, and the degraded-write decisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "raid/write_plan.h"

using namespace draid::raid;

namespace {

constexpr std::uint32_t kKb = 1024;

} // namespace

TEST(WritePlan, PaperRegimeBoundariesRaid5)
{
    // §9.3: 8 drives, 512 KB chunks -> RMW below 1536 KB, reconstruct
    // write between 1536 KB and 3584 KB, full stripe at 3584 KB.
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);

    auto mode_of = [&](std::uint64_t io_kb) {
        auto plans = planner.plan(0, io_kb * kKb);
        EXPECT_EQ(plans.size(), 1u);
        return plans[0].mode;
    };

    EXPECT_EQ(mode_of(128), WriteMode::kReadModifyWrite);
    EXPECT_EQ(mode_of(512), WriteMode::kReadModifyWrite);
    EXPECT_EQ(mode_of(1024), WriteMode::kReadModifyWrite);
    EXPECT_EQ(mode_of(1536), WriteMode::kReconstructWrite);
    EXPECT_EQ(mode_of(2048), WriteMode::kReconstructWrite);
    EXPECT_EQ(mode_of(3072), WriteMode::kReconstructWrite);
    EXPECT_EQ(mode_of(3584), WriteMode::kFullStripe);
}

TEST(WritePlan, Raid6SmallWriteIsRmw)
{
    // §A.2: RAID-6 with 8 drives -> 3072 KB stripe; small writes RMW.
    Geometry g(RaidLevel::kRaid6, 512 * kKb, 8);
    WritePlanner planner(g);
    auto plans = planner.plan(0, 128 * kKb);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].mode, WriteMode::kReadModifyWrite);
    auto full = planner.plan(0, 3072 * kKb);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0].mode, WriteMode::kFullStripe);
}

TEST(WritePlan, RmwParityWindowIsUnionOfSegments)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    // Write spanning the end of chunk 0 and start of chunk 1.
    auto plans = planner.plan(400 * kKb, 256 * kKb);
    ASSERT_EQ(plans.size(), 1u);
    const auto &p = plans[0];
    EXPECT_EQ(p.mode, WriteMode::kReadModifyWrite);
    ASSERT_EQ(p.writes.size(), 2u);
    EXPECT_EQ(p.writes[0].dataIdx, 0u);
    EXPECT_EQ(p.writes[0].offset, 400u * kKb);
    EXPECT_EQ(p.writes[0].length, 112u * kKb);
    EXPECT_EQ(p.writes[1].dataIdx, 1u);
    EXPECT_EQ(p.writes[1].offset, 0u);
    EXPECT_EQ(p.writes[1].length, 144u * kKb);
    // Union covers [0, 512 KB).
    EXPECT_EQ(p.parityOffset, 0u);
    EXPECT_EQ(p.parityLength, 512u * kKb);
    EXPECT_EQ(p.waitNum, 2u);
}

TEST(WritePlan, RcwListsUntouchedChunks)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    auto plans = planner.plan(0, 2048 * kKb); // chunks 0-3 written
    ASSERT_EQ(plans.size(), 1u);
    const auto &p = plans[0];
    EXPECT_EQ(p.mode, WriteMode::kReconstructWrite);
    EXPECT_EQ(p.writes.size(), 4u);
    ASSERT_EQ(p.rcwReads.size(), 3u);
    EXPECT_EQ(p.rcwReads[0], 4u);
    EXPECT_EQ(p.rcwReads[1], 5u);
    EXPECT_EQ(p.rcwReads[2], 6u);
    EXPECT_EQ(p.waitNum, 7u);
    EXPECT_EQ(p.parityOffset, 0u);
    EXPECT_EQ(p.parityLength, 512u * kKb);
}

TEST(WritePlan, FullStripeRequiresExactCoverage)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    auto plans = planner.plan(0, 3584 * kKb);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].mode, WriteMode::kFullStripe);
    EXPECT_EQ(plans[0].writes.size(), 7u);
    EXPECT_EQ(plans[0].waitNum, 0u);

    // One byte short: not full stripe.
    auto partial = planner.plan(0, 3584 * kKb - 1);
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_NE(partial[0].mode, WriteMode::kFullStripe);
}

TEST(WritePlan, MultiStripeWriteSplits)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8); // stripe = 3584 KB
    WritePlanner planner(g);
    auto plans = planner.plan(3584ull * kKb - 128 * kKb, 256 * kKb);
    ASSERT_EQ(plans.size(), 2u);
    EXPECT_EQ(plans[0].stripe, 0u);
    EXPECT_EQ(plans[1].stripe, 1u);
    EXPECT_EQ(plans[0].userBytes(), 128u * kKb);
    EXPECT_EQ(plans[1].userBytes(), 128u * kKb);
}

TEST(WritePlan, AlignedFullStripesAcrossManyStripes)
{
    Geometry g(RaidLevel::kRaid5, 64 * kKb, 5); // stripe = 256 KB
    WritePlanner planner(g);
    auto plans = planner.plan(0, 1024 * kKb); // 4 full stripes
    ASSERT_EQ(plans.size(), 4u);
    for (const auto &p : plans)
        EXPECT_EQ(p.mode, WriteMode::kFullStripe);
}

TEST(WritePlan, UserBytesSumsSegments)
{
    Geometry g(RaidLevel::kRaid5, 512 * kKb, 8);
    WritePlanner planner(g);
    for (std::uint64_t len : {4ull * kKb, 128ull * kKb, 1000ull * kKb}) {
        std::uint64_t total = 0;
        for (const auto &p : planner.plan(12345, len))
            total += p.userBytes();
        EXPECT_EQ(total, len);
    }
}

namespace {

/** Which member of stripe 0 has failed in a planDegraded() case. */
struct Lost
{
    ChunkRole role;
    std::uint32_t dataIdx = 0; ///< for ChunkRole::kData
};

struct DegradedCase
{
    const char *name;
    RaidLevel level;
    Lost lost;
    std::vector<WriteSegment> segs;
    DegradedWriteKind kind;
    WriteMode mode;           ///< plan's mode afterwards
    std::uint32_t parityOff;  ///< plan's parity window afterwards
    std::uint32_t parityLen;
    std::uint32_t waitNum;    ///< plan's wait-num afterwards
    std::size_t writesLeft;   ///< plan's segments afterwards
    std::size_t failedPos;    ///< kTargeted: peeled segment's index
    bool phase1;              ///< kTargeted: survivors' RMW phase
};

} // namespace

TEST(WritePlan, PlanDegradedDecidesEveryCase)
{
    // Width 6, 64 KB chunks: RAID-5 has 5 data chunks, RAID-6 has 4.
    constexpr std::uint32_t c = 64 * kKb;
    const auto r5 = RaidLevel::kRaid5, r6 = RaidLevel::kRaid6;
    const Lost p{ChunkRole::kParityP}, q{ChunkRole::kParityQ};
    auto data = [](std::uint32_t i) { return Lost{ChunkRole::kData, i}; };
    using K = DegradedWriteKind;
    using M = WriteMode;
    const WriteSegment small{0, 4 * kKb, 8 * kKb};
    const std::vector<DegradedCase> cases = {
        // A lost P on RAID-5 leaves no parity to maintain.
        {"r5 lost P", r5, p, {small}, K::kParityLess, M::kReadModifyWrite,
         4 * kKb, 8 * kKb, 1, 1, 0, false},
        // A lost P on RAID-6, or a lost Q: the normal flow skips it.
        {"r6 lost P", r6, p, {small}, K::kNormal, M::kReadModifyWrite,
         4 * kKb, 8 * kKb, 1, 1, 0, false},
        {"r6 lost Q", r6, q, {small}, K::kNormal, M::kReadModifyWrite,
         4 * kKb, 8 * kKb, 1, 1, 0, false},
        // Untouched failed chunk: a reconstruct write turns into RMW over
        // the union window (its unknown bytes would enter the RCW sum).
        {"r5 untouched", r5, data(2),
         {{0, 0, c}, {1, 0, c}, {3, 0, c / 2}}, K::kForcedRmw,
         M::kReadModifyWrite, 0, c, 3, 3, 0, false},
        {"r6 untouched", r6, data(3), {{0, 0, c}, {1, 0, c}, {2, 0, c / 2}},
         K::kForcedRmw, M::kReadModifyWrite, 0, c, 3, 3, 0, false},
        {"r5 untouched small", r5, data(4), {small}, K::kForcedRmw,
         M::kReadModifyWrite, 4 * kKb, 8 * kKb, 1, 1, 0, false},
        // Failed chunk touched alone: its segment is peeled off, nothing
        // else to write.
        {"r5 touched alone", r5, data(1), {{1, 8 * kKb, 16 * kKb}},
         K::kTargeted, M::kReadModifyWrite, 8 * kKb, 16 * kKb, 1, 0, 0,
         false},
        {"r6 touched alone", r6, data(0), {{0, 8 * kKb, 16 * kKb}},
         K::kTargeted, M::kReadModifyWrite, 8 * kKb, 16 * kKb, 1, 0, 0,
         false},
        // Touched with survivors: the survivors get a forced-RMW phase 1;
        // the plan itself keeps its mode minus the peeled segment.
        {"r5 touched with survivors", r5, data(1),
         {{0, c - 4 * kKb, 4 * kKb}, {1, 0, c}, {2, 0, 10 * kKb}},
         K::kTargeted, M::kReadModifyWrite, 0, c, 3, 2, 1, true},
        {"r6 touched with survivors", r6, data(2),
         {{0, 0, c}, {1, 0, c}, {2, 0, c}}, K::kTargeted,
         M::kReconstructWrite, 0, c, 4, 2, 2, true},
        // A full-stripe write skips the failed chunk in the normal flow.
        {"r5 full stripe", r5, data(3),
         {{0, 0, c}, {1, 0, c}, {2, 0, c}, {3, 0, c}, {4, 0, c}},
         K::kNormal, M::kFullStripe, 0, c, 0, 5, 0, false},
        {"r6 full stripe", r6, data(0),
         {{0, 0, c}, {1, 0, c}, {2, 0, c}, {3, 0, c}}, K::kNormal,
         M::kFullStripe, 0, c, 0, 4, 0, false},
    };

    for (const auto &tc : cases) {
        SCOPED_TRACE(tc.name);
        Geometry g(tc.level, c, 6);
        WritePlanner planner(g);
        std::uint32_t failed = g.parityDevice(0);
        if (tc.lost.role == ChunkRole::kParityQ)
            failed = g.qDevice(0);
        else if (tc.lost.role == ChunkRole::kData)
            failed = g.dataDevice(0, tc.lost.dataIdx);
        StripeWritePlan plan = planner.planStripe(0, tc.segs);
        const StripeWritePlan before = plan;
        const DegradedWritePlan d = planner.planDegraded(plan, failed);

        EXPECT_EQ(d.kind, tc.kind);
        EXPECT_EQ(plan.mode, tc.mode);
        EXPECT_EQ(plan.parityOffset, tc.parityOff);
        EXPECT_EQ(plan.parityLength, tc.parityLen);
        EXPECT_EQ(plan.waitNum, tc.waitNum);
        EXPECT_EQ(plan.writes.size(), tc.writesLeft);
        if (plan.mode == WriteMode::kReadModifyWrite) {
            EXPECT_TRUE(plan.rcwReads.empty());
        }
        EXPECT_EQ(d.phase1.has_value(), tc.phase1);
        if (tc.kind != DegradedWriteKind::kTargeted)
            continue;

        // The peeled segment is the failed chunk's, at its old index.
        EXPECT_EQ(d.failedPos, tc.failedPos);
        EXPECT_EQ(d.failedSeg.dataIdx, tc.lost.dataIdx);
        EXPECT_EQ(d.failedSeg.offset, before.writes[d.failedPos].offset);
        EXPECT_EQ(d.failedSeg.length, before.writes[d.failedPos].length);
        for (const auto &s : plan.writes)
            EXPECT_NE(s.dataIdx, tc.lost.dataIdx);
        if (!d.phase1)
            continue;
        // Phase 1 writes the survivors by RMW over their union window.
        const StripeWritePlan &ph = *d.phase1;
        EXPECT_EQ(ph.mode, WriteMode::kReadModifyWrite);
        EXPECT_TRUE(ph.rcwReads.empty());
        ASSERT_EQ(ph.writes.size(), plan.writes.size());
        EXPECT_EQ(ph.waitNum, ph.writes.size());
        std::uint32_t lo = c, hi = 0;
        for (const auto &s : ph.writes) {
            lo = std::min(lo, s.offset);
            hi = std::max(hi, s.offset + s.length);
        }
        EXPECT_EQ(ph.parityOffset, lo);
        EXPECT_EQ(ph.parityLength, hi - lo);
    }
}
