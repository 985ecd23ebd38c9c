// Event journal + windowed timeline: ring wraparound, hand-computed
// window bins, utilization re-binning, the health detector, JSON/JSONL
// well-formedness, the ASCII renderer's event markers, the end-to-end
// failure -> rebuild -> swap journal lifecycle, and the guard that the
// journal + timeline never perturb simulated ticks.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/reconstruct.h"
#include "draid_test_util.h"
#include "telemetry/event_journal.h"
#include "telemetry/timeline.h"

using namespace draid;
using namespace draid::testutil;

namespace {

core::DraidOptions
fourPlusOneOptions()
{
    core::DraidOptions o;
    o.chunkSize = 64 * 1024;
    return o;
}

std::uint64_t
countType(const std::vector<telemetry::EventJournal::Event> &events,
          telemetry::EventType t)
{
    std::uint64_t n = 0;
    for (const auto &e : events) {
        if (e.type == t)
            ++n;
    }
    return n;
}

sim::Tick
tickOf(const std::vector<telemetry::EventJournal::Event> &events,
       telemetry::EventType t)
{
    for (const auto &e : events) {
        if (e.type == t)
            return e.tick;
    }
    return -1;
}

} // namespace

// --- event journal ------------------------------------------------------

TEST(EventJournal, RingWrapsAndKeepsNewestOldestFirst)
{
    telemetry::EventJournal journal(4);
    EXPECT_EQ(journal.capacity(), 4u);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        journal.record(telemetry::EventType::kScrubPass, /*node=*/0,
                       /*tick=*/static_cast<sim::Tick>(i * 10), /*a=*/i);
    }
    EXPECT_EQ(journal.size(), 4u);
    EXPECT_EQ(journal.totalRecorded(), 6u);

    const auto events = journal.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Records 1 and 2 were overwritten; 3..6 remain, oldest first.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].a, i + 3);
        EXPECT_EQ(events[i].tick, static_cast<sim::Tick>((i + 3) * 10));
    }
}

TEST(EventJournal, SnapshotRangeFiltersHalfOpenInterval)
{
    telemetry::EventJournal journal;
    for (sim::Tick t : {10, 20, 30, 40})
        journal.record(telemetry::EventType::kDriveFailed, 0, t);
    const auto in = journal.snapshotRange(20, 40);
    ASSERT_EQ(in.size(), 2u);
    EXPECT_EQ(in[0].tick, 20);
    EXPECT_EQ(in[1].tick, 30);
}

TEST(EventJournal, DisabledRecordsNothing)
{
    telemetry::EventJournal journal;
    EXPECT_TRUE(journal.enabled()); // ships enabled
    journal.setEnabled(false);
    journal.record(telemetry::EventType::kDriveFailed, 0, 1);
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_EQ(journal.totalRecorded(), 0u);
}

TEST(EventJournal, JsonlLinesAreWellFormed)
{
    telemetry::EventJournal journal;
    journal.record(telemetry::EventType::kRebuildStarted, 0, 100, 96,
                   524288);
    journal.record(telemetry::EventType::kStripeLockConvoy, 3, 200, 7, 2);
    std::ostringstream os;
    journal.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    int lines = 0;
    while (std::getline(is, line)) {
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
        ++lines;
    }
    EXPECT_EQ(lines, 2);
    EXPECT_NE(os.str().find("\"RebuildStarted\""), std::string::npos);
}

// --- windowed aggregator ------------------------------------------------

TEST(WindowedAggregator, HandComputedBins)
{
    // Window = 1000 ticks = 1 us. Two ops land in window 0, none in
    // window 1, one in window 2.
    telemetry::WindowedAggregator agg(sim::Ticks{1000});
    agg.addOp(sim::Ticks{100}, sim::Ticks{50}, /*bytes=*/1000);
    agg.addOp(sim::Ticks{999}, sim::Ticks{150}, /*bytes=*/500);
    agg.addOp(sim::Ticks{2500}, sim::Ticks{100}, /*bytes=*/2000);
    EXPECT_EQ(agg.opsAdded(), 3u);

    const auto windows = agg.finalize();
    ASSERT_EQ(windows.size(), 3u);

    EXPECT_EQ(windows[0].start, 0);
    EXPECT_EQ(windows[0].ops, 2u);
    EXPECT_EQ(windows[0].bytes, 1500u);
    // 1500 bytes over 1 us = 1500 MB/s; 2 ops over 1 us = 2000 kIOPS.
    EXPECT_NEAR(windows[0].goodputMBps, 1500.0, 1e-9);
    EXPECT_NEAR(windows[0].kiops, 2000.0, 1e-9);
    // Nearest-rank p50 of {50, 150} ticks is 50 ticks = 0.05 us.
    EXPECT_NEAR(windows[0].p50Us, 0.05, 1e-12);
    EXPECT_NEAR(windows[0].p99Us, 0.15, 1e-12);

    // The empty middle window is present and zero-filled.
    EXPECT_EQ(windows[1].start, 1000);
    EXPECT_EQ(windows[1].ops, 0u);
    EXPECT_EQ(windows[1].goodputMBps, 0.0);

    EXPECT_EQ(windows[2].start, 2000);
    EXPECT_EQ(windows[2].ops, 1u);
    EXPECT_NEAR(windows[2].goodputMBps, 2000.0, 1e-9);
    EXPECT_NEAR(windows[2].p50Us, 0.1, 1e-12);
}

TEST(WindowedAggregator, ExplicitRangeExtendsCoverage)
{
    telemetry::WindowedAggregator agg(sim::Ticks{1000});
    agg.addOp(sim::Ticks{1500}, sim::Ticks{10}, 100);
    const auto windows = agg.finalize(sim::Ticks::zero(), sim::Ticks{5000});
    ASSERT_EQ(windows.size(), 5u);
    EXPECT_EQ(windows[0].ops, 0u);
    EXPECT_EQ(windows[1].ops, 1u);
    EXPECT_EQ(windows[4].start, 4000);
}

TEST(WindowedAggregator, SpanIngestionUsesOpLaneOnly)
{
    telemetry::WindowedAggregator agg(sim::Ticks{1000});
    telemetry::TraceSpan op;
    op.lane = "op";
    op.name = "draid.read";
    op.start = 100;
    op.end = 600;
    op.args[0] = {"bytes", 4096};

    telemetry::TraceSpan ssd = op;
    ssd.lane = "ssd"; // sub-span: must not be double-counted

    agg.addOpSpans({op, ssd});
    const auto windows = agg.finalize();
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].ops, 1u);
    EXPECT_EQ(windows[0].bytes, 4096u);
    EXPECT_NEAR(windows[0].p50Us, 0.5, 1e-12); // 500-tick latency
}

// --- utilization binning + health detector ------------------------------

TEST(Timeline, UtilizationRebinsAndCarriesForward)
{
    std::vector<telemetry::UtilizationSampler::Sample> samples;
    // Node 1 "ssd.util": two samples in window 0, none in window 1.
    samples.push_back({1, "ssd.util", 100, 0.2});
    samples.push_back({1, "ssd.util", 900, 0.6});
    const auto series =
        telemetry::binUtilization(samples, /*from=*/sim::Ticks::zero(),
                                  sim::Ticks{1000}, /*num_windows=*/2);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].node, 1);
    ASSERT_EQ(series[0].perWindow.size(), 2u);
    EXPECT_NEAR(series[0].perWindow[0], 0.4, 1e-12); // mean of the two
    EXPECT_NEAR(series[0].perWindow[1], 0.4, 1e-12); // carried forward
}

TEST(Timeline, HealthDetectorFlagsStallsAndImbalance)
{
    std::vector<telemetry::TimelineWindow> windows(4);
    windows[0].ops = 5;
    windows[1].ops = 0; // stalled: active windows on both sides
    windows[2].ops = 3;
    windows[3].ops = 0; // trailing zero window: NOT a stall

    // Three non-host nodes report ssd.util; node 1 is far busier in
    // window 0. The host (node 0) being busy must not flag.
    std::vector<telemetry::UtilizationSeries> util;
    util.push_back({0, "ssd.util", {1.0, 1.0, 1.0, 1.0}}); // host: ignored
    util.push_back({1, "ssd.util", {0.9, 0.3, 0.2, 0.0}});
    util.push_back({2, "ssd.util", {0.1, 0.3, 0.2, 0.0}});
    util.push_back({3, "ssd.util", {0.1, 0.3, 0.2, 0.0}});

    const auto health =
        telemetry::detectHealth(windows, util, /*host_node=*/0);
    ASSERT_EQ(health.stalledWindows.size(), 1u);
    EXPECT_EQ(health.stalledWindows[0], 1u);

    ASSERT_EQ(health.imbalances.size(), 1u);
    EXPECT_EQ(health.imbalances[0].window, 0u);
    EXPECT_EQ(health.imbalances[0].node, 1);
    EXPECT_NEAR(health.imbalances[0].maxUtil, 0.9, 1e-12);
    EXPECT_NEAR(health.imbalances[0].meanUtil, 0.1, 1e-12);
}

// --- report assembly + rendering ----------------------------------------

namespace {

/** A synthetic run: steady ops with a dip bracketed by rebuild markers. */
telemetry::TimelineReport
syntheticReport()
{
    std::vector<telemetry::TraceSpan> spans;
    for (int i = 0; i < 100; ++i) {
        telemetry::TraceSpan s;
        s.lane = "op";
        s.name = "draid.read";
        s.start = i * 100;
        s.end = s.start + 80;
        // The dip: ops in [3000, 7000) carry fewer bytes.
        const bool dip = s.end >= 3000 && s.end < 7000;
        s.args[0] = {"bytes", dip ? 512u : 8192u};
        spans.push_back(s);
    }
    std::vector<telemetry::EventJournal::Event> events;
    events.push_back({telemetry::EventType::kRebuildStarted, 0, 3000, 8, 0});
    events.push_back(
        {telemetry::EventType::kRebuildCompleted, 0, 6999, 8, 0});
    return telemetry::buildTimeline(spans, events, {},
                                    sim::Ticks{1000}, /*host_node=*/0);
}

} // namespace

TEST(Timeline, BuildClampsEventsAndSizesWindows)
{
    auto report = syntheticReport();
    EXPECT_EQ(report.windowTicks, 1000);
    ASSERT_EQ(report.windows.size(), 10u);
    EXPECT_EQ(report.events.size(), 2u);

    // An event outside the op range is dropped.
    std::vector<telemetry::EventJournal::Event> far;
    far.push_back({telemetry::EventType::kDriveFailed, 0, 1'000'000, 0, 0});
    telemetry::TraceSpan s;
    s.lane = "op";
    s.start = 0;
    s.end = 100;
    const auto clamped =
        telemetry::buildTimeline({s}, far, {}, sim::Ticks{1000}, 0);
    EXPECT_TRUE(clamped.events.empty());
}

TEST(Timeline, JsonReportIsWellFormed)
{
    auto report = syntheticReport();
    report.utilization.push_back({1, "ssd.util", {0.5, 0.6}});
    std::ostringstream os;
    telemetry::writeTimelineJson(os, report);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
    EXPECT_NE(os.str().find("\"RebuildStarted\""), std::string::npos);
}

TEST(Timeline, AsciiRendererShowsDipBracketedByMarkers)
{
    const auto report = syntheticReport();
    std::ostringstream os;
    telemetry::renderTimelineAscii(os, report, "synthetic");
    const std::string out = os.str();

    // One sparkline column per window, between the | delimiters.
    const auto gp = out.find("## goodput |");
    ASSERT_NE(gp, std::string::npos);
    const auto ev = out.find("## events  |");
    ASSERT_NE(ev, std::string::npos);
    const std::string spark = out.substr(gp + 12, report.windows.size());
    const std::string markers = out.substr(ev + 12, report.windows.size());

    // The R and C markers bracket the dip windows.
    EXPECT_EQ(markers[3], 'R');
    EXPECT_EQ(markers[6], 'C');
    // Goodput inside the dip renders lower than outside (peak is '#').
    EXPECT_EQ(spark[1], '#');
    EXPECT_NE(spark[4], '#');
    EXPECT_NE(spark[4], ' ');

    // Legend lines name the rare events.
    EXPECT_NE(out.find("[R] RebuildStarted"), std::string::npos);
    EXPECT_NE(out.find("[C] RebuildCompleted"), std::string::npos);
    EXPECT_NE(out.find("## health:"), std::string::npos);
}

TEST(Timeline, EventMarkersAreUniquePerType)
{
    std::set<char> seen;
    for (std::size_t i = 0; i < telemetry::kNumEventTypes; ++i) {
        const char m = telemetry::eventMarker(
            static_cast<telemetry::EventType>(i));
        EXPECT_NE(m, '?');
        EXPECT_TRUE(seen.insert(m).second)
            << "duplicate marker '" << m << "'";
    }
}

// --- end to end ---------------------------------------------------------

TEST(TimelineE2E, JournalRecordsFailureRebuildSwapLifecycle)
{
    // 4+1 dRAID on 6 targets: target 5 is the hot spare.
    DraidRig rig(6, fourPlusOneOptions(), 5);
    auto &journal = rig.cluster->telemetry().journal();
    const auto &geom = rig.host().geometry();
    const std::uint32_t stripeData =
        static_cast<std::uint32_t>(geom.stripeDataSize());

    const std::uint64_t stripes = 4;
    for (std::uint64_t s = 0; s < stripes; ++s) {
        ec::Buffer buf(stripeData);
        buf.fillPattern(static_cast<int>(s) + 1);
        ASSERT_TRUE(
            writeSync(rig.sim(), rig.host(), s * stripeData, buf));
    }

    rig.host().markFailed(0);
    bool ok = false;
    readSync(rig.sim(), rig.host(), 0, stripeData, &ok);
    ASSERT_TRUE(ok);

    core::RebuildJob job(
        rig.sim(),
        [&](std::uint64_t stripe, std::function<void(bool)> done) {
            rig.host().reconstructChunk(stripe, 5, std::move(done));
        },
        stripes, geom.chunkSize(), /*window=*/2);
    job.bindJournal(&journal, rig.cluster->hostId());
    bool rebuilt = false;
    job.start([&](bool all_ok) {
        rebuilt = all_ok;
        rig.sim().stop();
    });
    while (!job.finished() && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_TRUE(rebuilt);
    rig.host().replaceDevice(0, 5);
    EXPECT_FALSE(rig.host().isDegraded());

    const auto events = journal.snapshot();
    EXPECT_EQ(countType(events, telemetry::EventType::kDriveFailed), 1u);
    EXPECT_GE(countType(events, telemetry::EventType::kDegradedReadServed),
              1u);
    EXPECT_EQ(countType(events, telemetry::EventType::kRebuildStarted), 1u);
    EXPECT_EQ(countType(events, telemetry::EventType::kRebuildCompleted),
              1u);
    EXPECT_EQ(countType(events, telemetry::EventType::kHotSpareSwap), 1u);
    EXPECT_EQ(countType(events, telemetry::EventType::kDriveRecovered), 1u);

    // Lifecycle order: failed <= rebuild started <= completed <= swap.
    const sim::Tick failed =
        tickOf(events, telemetry::EventType::kDriveFailed);
    const sim::Tick started =
        tickOf(events, telemetry::EventType::kRebuildStarted);
    const sim::Tick completed =
        tickOf(events, telemetry::EventType::kRebuildCompleted);
    const sim::Tick swap =
        tickOf(events, telemetry::EventType::kHotSpareSwap);
    EXPECT_LE(failed, started);
    EXPECT_LE(started, completed);
    EXPECT_LE(completed, swap);

    // The snapshot is tick-ordered (single writer, monotone clock).
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].tick, events[i].tick);

    // The completed record carries the stripe count.
    for (const auto &e : events) {
        if (e.type == telemetry::EventType::kRebuildStarted) {
            EXPECT_EQ(e.a, stripes);
        }
        if (e.type == telemetry::EventType::kRebuildCompleted) {
            EXPECT_EQ(e.a, stripes);
            EXPECT_EQ(e.b, 0u); // no per-stripe failures
        }
    }
}

TEST(TimelineDeterminism, JournalAndTimelineDoNotPerturbTicks)
{
    // The same failure + degraded-read + rebuild scenario twice: once
    // fully dark (journal disabled, no tracing), once with the journal,
    // tracing, sampling AND a timeline built + rendered at the end.
    // Everything is observe-only, so completion ticks must be identical.
    auto run = [](bool instrumented) {
        DraidRig rig(6, fourPlusOneOptions(), 5);
        auto &tel = rig.cluster->telemetry();
        if (instrumented) {
            rig.cluster->tracer().setEnabled(true);
            rig.cluster->startUtilizationSampling(sim::Ticks::us(20));
        } else {
            tel.journal().setEnabled(false);
        }

        const auto &geom = rig.host().geometry();
        const std::uint32_t stripeData =
            static_cast<std::uint32_t>(geom.stripeDataSize());
        std::vector<sim::Tick> ticks;

        for (std::uint64_t s = 0; s < 2; ++s) {
            ec::Buffer buf(stripeData);
            buf.fillPattern(static_cast<int>(s) + 3);
            EXPECT_TRUE(
                writeSync(rig.sim(), rig.host(), s * stripeData, buf));
            ticks.push_back(rig.sim().now().raw());
        }

        rig.host().markFailed(0);
        bool ok = false;
        readSync(rig.sim(), rig.host(), 0, stripeData, &ok);
        EXPECT_TRUE(ok);
        ticks.push_back(rig.sim().now().raw());

        core::RebuildJob job(
            rig.sim(),
            [&](std::uint64_t stripe, std::function<void(bool)> done) {
                rig.host().reconstructChunk(stripe, 5, std::move(done));
            },
            2, geom.chunkSize(), /*window=*/2);
        job.bindJournal(&tel.journal(), rig.cluster->hostId());
        job.start([&](bool) { rig.sim().stop(); });
        while (!job.finished() && rig.sim().pendingEvents() > 0)
            rig.sim().run();
        ticks.push_back(rig.sim().now().raw());
        rig.host().replaceDevice(0, 5);

        readSync(rig.sim(), rig.host(), 0, stripeData, &ok);
        EXPECT_TRUE(ok);
        ticks.push_back(rig.sim().now().raw());

        if (instrumented) {
            // Post-processing is pure: it runs after the ticks were
            // sampled and touches no simulator state.
            const auto report = telemetry::buildTimeline(
                rig.cluster->tracer().spans(), tel.journal().snapshot(),
                tel.sampler().samples(), sim::Ticks::zero(),
                rig.cluster->hostId());
            EXPECT_FALSE(report.windows.empty());
            std::ostringstream ss;
            telemetry::renderTimelineAscii(ss, report, "determinism");
            EXPECT_FALSE(ss.str().empty());
            EXPECT_GT(tel.journal().size(), 0u);
        }
        return ticks;
    };

    EXPECT_EQ(run(false), run(true));
}
