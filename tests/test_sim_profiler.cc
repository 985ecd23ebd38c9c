// SimProfiler: per-label attribution, heap histograms, and the
// observe-only guarantee (profiling must not perturb the simulation).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.h"
#include "telemetry/sim_profiler.h"

using draid::sim::Simulator;
using draid::sim::Tick;
namespace sim = draid::sim;
using draid::telemetry::SimProfiler;

namespace {

/** Find a label's row in a report; fails the test if absent. */
const SimProfiler::LabelCost &
rowFor(const SimProfiler::Report &report, const std::string &label)
{
    for (const auto &src : report.sources)
        if (src.label == label)
            return src;
    ADD_FAILURE() << "label not found: " << label;
    static const SimProfiler::LabelCost kEmpty;
    return kEmpty;
}

} // namespace

TEST(SimProfiler, CountsEventsPerLabelExactly)
{
    Simulator sim;
    SimProfiler profiler;
    profiler.attach(sim);
    for (int i = 0; i < 7; ++i)
        sim.schedule(sim::Ticks{10 + i}, "alpha", []() {});
    for (int i = 0; i < 3; ++i)
        sim.schedule(sim::Ticks{5}, "beta", []() {});
    sim.schedule(sim::Ticks{1}, []() {}); // unlabeled
    sim.run();

    const SimProfiler::Report report = profiler.report();
    EXPECT_EQ(report.events, 11u);
    EXPECT_EQ(report.scheduled, 11u);
    ASSERT_EQ(report.sources.size(), 3u);
    EXPECT_EQ(rowFor(report, "alpha").count, 7u);
    EXPECT_EQ(rowFor(report, "beta").count, 3u);
    EXPECT_EQ(rowFor(report, "(unlabeled)").count, 1u);
    for (const auto &src : report.sources) {
        EXPECT_GE(src.maxNs, src.minNs) << src.label;
        EXPECT_GE(src.totalNs, src.maxNs) << src.label;
    }
}

TEST(SimProfiler, MergesIdenticalLabelsAcrossDistinctPointers)
{
    // Labels are cached by pointer but merged by name: two distinct char
    // arrays with equal contents must land in one report row.
    static const char kA[] = "same.name";
    static const char kB[] = "same.name";
    ASSERT_NE(static_cast<const void *>(kA), static_cast<const void *>(kB));
    Simulator sim;
    SimProfiler profiler;
    profiler.attach(sim);
    sim.schedule(sim::Ticks{1}, kA, []() {});
    sim.schedule(sim::Ticks{2}, kB, []() {});
    sim.run();

    const SimProfiler::Report report = profiler.report();
    ASSERT_EQ(report.sources.size(), 1u);
    EXPECT_EQ(report.sources[0].label, "same.name");
    EXPECT_EQ(report.sources[0].count, 2u);
}

TEST(SimProfiler, BinForMatchesLog2Semantics)
{
    // Bin b holds v in [2^b, 2^(b+1)); 0 maps to bin 0.
    EXPECT_EQ(SimProfiler::binFor(0), 0u);
    EXPECT_EQ(SimProfiler::binFor(1), 0u);
    EXPECT_EQ(SimProfiler::binFor(2), 1u);
    EXPECT_EQ(SimProfiler::binFor(3), 1u);
    EXPECT_EQ(SimProfiler::binFor(4), 2u);
    EXPECT_EQ(SimProfiler::binFor(7), 2u);
    EXPECT_EQ(SimProfiler::binFor(8), 3u);
    EXPECT_EQ(SimProfiler::binFor(1u << 20), 20u);
    EXPECT_EQ(SimProfiler::binFloor(0), 1u);
    EXPECT_EQ(SimProfiler::binFloor(10), 1024u);
}

TEST(SimProfiler, HeapStatsAndHistogramsMatchHandBuiltSchedule)
{
    // 8 events on one tick + 1 on another: drains of size 8 and 1,
    // queue depth peaking at 9.
    Simulator sim;
    SimProfiler profiler;
    profiler.attach(sim);
    for (int i = 0; i < 8; ++i)
        sim.schedule(sim::Ticks{10}, "wide", []() {});
    sim.schedule(sim::Ticks{20}, "lone", []() {});
    sim.run();

    const SimProfiler::Report report = profiler.report();
    EXPECT_EQ(report.scheduled, 9u);
    EXPECT_EQ(report.events, 9u);
    EXPECT_EQ(report.drains, 2u);
    EXPECT_EQ(report.maxQueueDepth, 9u);
    EXPECT_EQ(report.maxBatch, 8u);
    ASSERT_EQ(report.batchHist.size(), SimProfiler::kHistBins);
    ASSERT_EQ(report.depthHist.size(), SimProfiler::kHistBins);
    // Batch sizes 8 and 1 land in bins 3 and 0.
    EXPECT_EQ(report.batchHist[SimProfiler::binFor(8)], 1u);
    EXPECT_EQ(report.batchHist[SimProfiler::binFor(1)], 1u);
    for (std::size_t b = 0; b < SimProfiler::kHistBins; ++b) {
        if (b != 0 && b != 3) {
            EXPECT_EQ(report.batchHist[b], 0u) << "bin " << b;
        }
    }
    // Queue depths observed at push time: 1..9 → bins 0,1,1,2,2,2,2,3,3.
    EXPECT_EQ(report.depthHist[0], 1u);
    EXPECT_EQ(report.depthHist[1], 2u);
    EXPECT_EQ(report.depthHist[2], 4u);
    EXPECT_EQ(report.depthHist[3], 2u);
}

TEST(SimProfiler, ProfiledRunLeavesSimulationByteIdentical)
{
    // The determinism guard: the exact same workload driven with and
    // without a profiler attached must produce an identical simulated
    // trace — same ticks, same labels, same order, same final clock and
    // counters. This is the in-process version of CI's on/off byte
    // compare of the bench artifacts.
    using Row = std::tuple<Tick, std::string, int>;
    const auto drive = [](bool profiled, std::vector<Row> &trace) {
        Simulator sim;
        SimProfiler profiler;
        if (profiled)
            profiler.attach(sim);
        int seq = 0;
        for (int i = 0; i < 50; ++i) {
            const Tick when = (i * 37) % 11;
            const int id = seq++;
            sim.schedule(sim::Ticks{when}, "outer", [&, id]() {
                trace.emplace_back(sim.now().raw(), "outer", id);
                // Nested fan-out, including same-tick zero-delay events.
                for (int k = 0; k < 2; ++k) {
                    const int nested = seq++;
                    sim.schedule(sim::Ticks{k}, "inner", [&, nested]() {
                        trace.emplace_back(sim.now().raw(), "inner", nested);
                    });
                }
            });
        }
        sim.run();
        trace.emplace_back(sim.now().raw(), "final",
                           static_cast<int>(sim.eventsExecuted()));
    };
    std::vector<Row> off;
    std::vector<Row> on;
    drive(false, off);
    drive(true, on);
    EXPECT_EQ(off, on);
}

TEST(SimProfiler, WallClockFieldsArePlausible)
{
    Simulator sim;
    SimProfiler profiler;
    profiler.attach(sim);
    // Enough work that the run window is strictly positive even at a
    // coarse clock granularity.
    for (int i = 0; i < 10000; ++i)
        sim.schedule(sim::Ticks{i % 100}, "work", []() {});
    sim.run();

    const SimProfiler::Report report = profiler.report();
    EXPECT_GT(report.wallNs, 0u);
    EXPECT_GT(report.eventsPerSec, 0.0);
    const auto &row = rowFor(report, "work");
    EXPECT_EQ(row.count, 10000u);
    EXPECT_DOUBLE_EQ(row.share, 1.0); // only label → all attributed time
    EXPECT_GE(row.meanNs, 0.0);
}

TEST(SimProfiler, AccumulatesAcrossSimulators)
{
    // The bench harness points one profiler at several simulators in
    // sequence; counters must accumulate, not reset on attach.
    SimProfiler profiler;
    for (int r = 0; r < 3; ++r) {
        Simulator sim;
        profiler.attach(sim);
        for (int i = 0; i < 5; ++i)
            sim.schedule(sim::Ticks{i}, "round", []() {});
        sim.run();
    }
    const SimProfiler::Report report = profiler.report();
    EXPECT_EQ(report.events, 15u);
    EXPECT_EQ(rowFor(report, "round").count, 15u);
}

TEST(SimProfiler, WriteJsonEmitsRequiredKeys)
{
    Simulator sim;
    SimProfiler profiler;
    profiler.attach(sim);
    sim.schedule(sim::Ticks{1}, "k1", []() {});
    sim.schedule(sim::Ticks{1}, "k2", []() {});
    sim.run();

    std::ostringstream os;
    SimProfiler::writeJson(os, profiler.report(), "unit_test", 42);
    const std::string json = os.str();
    for (const char *key :
         {"\"bench\":\"unit_test\"", "\"seed\":42", "\"events\":",
          "\"wall_ns\":", "\"events_per_sec\":", "\"heap_stats\":",
          "\"pushes\":", "\"pops\":", "\"batches\":",
          "\"max_queue_depth\":", "\"max_batch\":",
          "\"queue_depth_hist\":", "\"batch_size_hist\":",
          "\"top_sources\":", "\"label\":\"k1\"", "\"label\":\"k2\"",
          "\"count\":", "\"total_ns\":", "\"min_ns\":", "\"max_ns\":",
          "\"mean_ns\":", "\"share\":"})
        EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
    EXPECT_EQ(json.back(), '\n');
}

TEST(SimProfiler, RenderAsciiShowsTotalsAndTopSources)
{
    Simulator sim;
    SimProfiler profiler;
    profiler.attach(sim);
    for (int i = 0; i < 4; ++i)
        sim.schedule(sim::Ticks{i}, "hot.path", []() {});
    sim.run();

    std::ostringstream os;
    SimProfiler::renderAscii(os, profiler.report(), "unit");
    const std::string text = os.str();
    EXPECT_NE(text.find("unit"), std::string::npos);
    EXPECT_NE(text.find("hot.path"), std::string::npos);
    EXPECT_NE(text.find("events"), std::string::npos);
}
