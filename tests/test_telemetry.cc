// Telemetry subsystem: registry scoping, histogram bucketing, span
// recording, Chrome-trace JSON well-formedness, the end-to-end span chain
// of a 4+1 dRAID write, and the guard that tracing never perturbs timing.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "draid_test_util.h"
#include "telemetry/lane_tap.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

using namespace draid;
using namespace draid::testutil;


// --- registry -----------------------------------------------------------

TEST(MetricsRegistry, ScopedNamesFormDottedHierarchy)
{
    telemetry::MetricsRegistry reg;
    telemetry::MetricScope root(reg, "");
    auto nic = root.scope("node3").scope("nic");
    EXPECT_EQ(nic.prefix(), "node3.nic");

    nic.counter("tx_bytes").inc(128);
    EXPECT_TRUE(reg.hasCounter("node3.nic.tx_bytes"));
    EXPECT_EQ(reg.counterValue("node3.nic.tx_bytes"), 128u);

    // The same qualified name resolves to the same object.
    nic.counter("tx_bytes").inc(1);
    EXPECT_EQ(reg.counterValue("node3.nic.tx_bytes"), 129u);

    // An unscoped root name has no leading dot.
    root.counter("events").inc();
    EXPECT_TRUE(reg.hasCounter("events"));

    const auto names = reg.names();
    EXPECT_NE(std::find(names.begin(), names.end(), "node3.nic.tx_bytes"),
              names.end());
}

TEST(MetricsRegistry, ProbesReadExistingStorageAtSnapshotTime)
{
    telemetry::MetricsRegistry reg;
    double backing = 1.0;
    reg.probe("host0.nic.tx_bytes", [&backing] { return backing; });

    EXPECT_TRUE(reg.hasProbe("host0.nic.tx_bytes"));
    EXPECT_DOUBLE_EQ(reg.probeValue("host0.nic.tx_bytes"), 1.0);

    // Probes are pull-based: the registry sees updates for free.
    backing = 7.5;
    EXPECT_DOUBLE_EQ(reg.probeValue("host0.nic.tx_bytes"), 7.5);

    EXPECT_DOUBLE_EQ(reg.probeValue("no.such.probe"), 0.0);
    EXPECT_EQ(reg.counterValue("no.such.counter"), 0u);
}

TEST(Histogram, BucketsAndSummaryStats)
{
    telemetry::Histogram h({10.0, 100.0, 1000.0});
    for (double s : {5.0, 7.0, 50.0, 500.0, 5000.0})
        h.observe(s);

    EXPECT_EQ(h.count(), 5u);
    const auto &c = h.bucketCounts();
    ASSERT_EQ(c.size(), 4u); // three bounds + overflow
    EXPECT_EQ(c[0], 2u);     // 5, 7
    EXPECT_EQ(c[1], 1u);     // 50
    EXPECT_EQ(c[2], 1u);     // 500
    EXPECT_EQ(c[3], 1u);     // 5000 overflows
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 5000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5562.0 / 5.0);
}

TEST(Histogram, BoundaryLandsInLowerBucket)
{
    telemetry::Histogram h({10.0, 100.0});
    h.observe(10.0);  // inclusive upper bound
    h.observe(10.01); // just past it
    const auto &c = h.bucketCounts();
    EXPECT_EQ(c[0], 1u);
    EXPECT_EQ(c[1], 1u);
    EXPECT_EQ(c[2], 0u);
}

TEST(Histogram, EmptyReportsZeros)
{
    telemetry::Histogram h(telemetry::latencyBucketsUs());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, JsonSnapshotIsWellFormed)
{
    telemetry::MetricsRegistry reg;
    telemetry::MetricScope root(reg, "");
    root.scope("host0").counter("ops").inc(3);
    root.scope("host0").gauge("depth").set(1.5);
    root.scope("node1").histogram("lat_us", {10.0, 100.0}).observe(42.0);
    reg.probe("node1.ssd.reads", [] { return 9.0; });

    const std::string json = reg.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"host0.ops\""), std::string::npos);
    EXPECT_NE(json.find("\"node1.ssd.reads\""), std::string::npos);
    EXPECT_NE(json.find("\"node1.lat_us\""), std::string::npos);
}

// --- tracer -------------------------------------------------------------

TEST(Tracer, DisabledMintsZeroAndRecordsNothing)
{
    telemetry::Tracer t;
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.mint(), 0u);
    EXPECT_EQ(t.mint(), 0u); // stays 0, never advances

    telemetry::TraceSpan s;
    s.traceId = 1;
    s.name = "ssd.read";
    t.recordSpan(std::move(s));
    EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, EnabledMintsSequentialIdsAndKeepsSpans)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    EXPECT_EQ(t.mint(), 1u);
    EXPECT_EQ(t.mint(), 2u);

    telemetry::TraceSpan outer;
    outer.traceId = 1;
    outer.node = 0;
    outer.lane = "op";
    outer.name = "draid.write";
    outer.start = 100;
    outer.end = 900;

    telemetry::TraceSpan inner;
    inner.traceId = 1;
    inner.node = 2;
    inner.lane = "ssd";
    inner.name = "ssd.write";
    inner.start = 300;
    inner.end = 600;
    inner.args[0] = {"bytes", 4096};

    t.recordSpan(outer);
    t.recordSpan(inner);
    ASSERT_EQ(t.spans().size(), 2u);

    // Nesting is positional: the inner span sits inside the outer one.
    const auto &o = t.spans()[0];
    const auto &i = t.spans()[1];
    EXPECT_EQ(o.traceId, i.traceId);
    EXPECT_GE(i.start, o.start);
    EXPECT_LE(i.end, o.end);
    EXPECT_STREQ(i.args[0].key, "bytes");
    EXPECT_EQ(i.bytes(), 4096u);
}

TEST(Tracer, SpanCapDropsButCounts)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setSpanCap(3);
    for (int i = 0; i < 5; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "x";
        t.recordSpan(std::move(s));
    }
    EXPECT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.droppedSpans(), 2u);
}

TEST(Tracer, ClearResetsDroppedAndNextId)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setSpanCap(1);
    t.setCounterCap(1);
    for (int i = 0; i < 3; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "x";
        t.recordSpan(std::move(s));
        t.recordCounter(0, "u", i, 0.5);
    }
    ASSERT_GT(t.droppedSpans(), 0u);
    ASSERT_GT(t.droppedCounters(), 0u);
    ASSERT_GT(t.counterStride(), 1u);

    t.clear();
    EXPECT_TRUE(t.spans().empty());
    EXPECT_TRUE(t.counterSamples().empty());
    EXPECT_EQ(t.droppedSpans(), 0u);
    EXPECT_EQ(t.droppedCounters(), 0u);
    EXPECT_EQ(t.sampledOutSpans(), 0u);
    EXPECT_EQ(t.counterStride(), 1u);
    EXPECT_EQ(t.mint(), 1u); // id sequence restarts
}

TEST(Tracer, FlightRecorderMirrorsPastSpanCap)
{
    telemetry::Tracer t;
    telemetry::FlightRecorder fr(8);
    t.bindFlightRecorder(&fr);
    t.setEnabled(true);
    t.setSpanCap(2);
    for (int i = 0; i < 6; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "op";
        s.lane = "op";
        t.recordSpan(std::move(s));
    }
    // Retention capped, but the ring saw every span regardless.
    EXPECT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.droppedSpans(), 4u);
    EXPECT_EQ(fr.totalRecorded(), 6u);
    EXPECT_EQ(fr.size(), 6u);
}

TEST(Tracer, TruncationMetadataInChromeExport)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    // No drops: no truncation marker, so clean traces stay clean.
    telemetry::TraceSpan ok;
    ok.traceId = t.mint();
    ok.name = "x";
    t.recordSpan(std::move(ok));
    EXPECT_EQ(t.toChromeTraceJson().find("trace_truncation"),
              std::string::npos);

    t.setSpanCap(1);
    for (int i = 0; i < 3; ++i) {
        telemetry::TraceSpan s;
        s.traceId = t.mint();
        s.name = "x";
        t.recordSpan(std::move(s));
    }
    const std::string json = t.toChromeTraceJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"trace_truncation\""), std::string::npos);
    // The pre-cap span already fills the one retained slot, so all three
    // later spans dropped.
    EXPECT_NE(json.find("\"dropped_spans\":3"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_counters\":0"), std::string::npos);
}

TEST(Tracer, ChromeTraceJsonIsWellFormed)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setNodeName(0, "host0");
    t.setNodeName(1, "node1");

    telemetry::TraceSpan s;
    s.traceId = t.mint();
    s.node = 1;
    s.lane = "nic.tx";
    s.name = "xfer \"quoted\"\\slash"; // must be escaped in the output
    s.start = 1000;
    s.end = 2500;
    s.args[0] = {"bytes", 128};
    t.recordSpan(std::move(s));
    t.recordCounter(1, "nic.tx.util", 2000, 0.75);

    const std::string json = t.toChromeTraceJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"host0\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Tracer, ChromeExportWritesArgsAsQuotedStringsInSlotOrder)
{
    telemetry::Tracer t;
    t.setEnabled(true);
    t.setNodeName(0, "host0");
    t.recordSpan({.traceId = t.mint(),
                  .node = 0,
                  .lane = "rebuild",
                  .name = "rebuild.stripe",
                  .start = 1500,
                  .end = 4250,
                  .args = {{"stripe", 17}, {"ok", 1}}});
    ASSERT_EQ(t.spans().size(), 1u);
    EXPECT_EQ(t.spans().front().bytes(), 0u); // no "bytes" slot

    EXPECT_EQ(t.toChromeTraceJson(),
              "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
              "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
              "\"args\":{\"name\":\"host0\"}},\n"
              "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
              "\"args\":{\"name\":\"rebuild\"}},\n"
              "{\"ph\":\"X\",\"name\":\"rebuild.stripe\",\"cat\":\"draid\","
              "\"pid\":0,\"tid\":1,\"ts\":1.500,\"dur\":2.750,"
              "\"args\":{\"trace\":1,\"stripe\":\"17\",\"ok\":\"1\"}}\n"
              "]}");
}

TEST(TelemetryJson, ControlBytesExportAsUnicodeEscapes)
{
    // A raw byte below 0x20 inside a JSON string is invalid JSON; every
    // exporter writes it as \u00XX.
    telemetry::Tracer t;
    t.setEnabled(true);
    telemetry::TraceSpan s;
    s.traceId = t.mint();
    s.name = "ctl\x01span";
    t.recordSpan(std::move(s));
    const std::string trace = t.toChromeTraceJson();
    EXPECT_TRUE(JsonChecker(trace).valid()) << trace;
    EXPECT_NE(trace.find("\"name\":\"ctl\\u0001span\""), std::string::npos)
        << trace;

    telemetry::MetricsRegistry reg;
    telemetry::MetricScope root(reg, "");
    root.counter("ctl\x01metric").inc(2);
    const std::string metrics = reg.toJson();
    EXPECT_TRUE(JsonChecker(metrics).valid()) << metrics;
    EXPECT_NE(metrics.find("\"ctl\\u0001metric\""), std::string::npos)
        << metrics;
}

// --- SSD lane -----------------------------------------------------------

TEST(SsdTrace, TracedReadAndWriteRecordChannelSpans)
{
    sim::Simulator sim;
    nvme::SsdConfig cfg;
    cfg.capacity = 1ull << 20;
    nvme::Ssd ssd(sim, cfg);

    telemetry::Tracer tracer;
    tracer.setEnabled(true);
    telemetry::ContentionTracker ct;
    ct.setEnabled(true);
    using RK = telemetry::ContentionTracker::ResourceKind;
    const auto res = ct.registerResource(3, RK::SsdChannel);
    const auto victim = ct.registerTenant("victim");
    const auto aggressor = ct.registerTenant("aggressor");
    telemetry::LaneTap tap(telemetry::LaneTap::Style::kSsd);
    tap.bindTrace(&tracer, 3);
    tap.bindContention(&ct, res);
    ssd.setObserver(&tap);

    // An aggressor write, then a victim read queued behind it at the same
    // tick, then an untraced read (no span).
    ct.noteOpStart(1, aggressor);
    ct.noteOpStart(2, victim);
    int done = 0;
    ssd.write(0, ec::Buffer(8192), 1,
              [&](blockdev::IoStatus) { ++done; });
    const sim::Tick writeEnd = ssd.channel().busyUntil().raw();
    ssd.read(0, 4096, 2, [&](blockdev::IoStatus, ec::Buffer) { ++done; });
    const sim::Tick readEnd = ssd.channel().busyUntil().raw();
    ssd.read(0, 4096, [&](blockdev::IoStatus, ec::Buffer) { ++done; });
    sim.run();
    EXPECT_EQ(done, 3);

    const auto &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    const telemetry::TraceSpan &w = spans[0];
    const telemetry::TraceSpan &r = spans[1];
    EXPECT_EQ(w.traceId, 1u);
    EXPECT_EQ(w.node, 3u);
    EXPECT_EQ(std::string_view(w.lane), "ssd");
    EXPECT_EQ(std::string_view(w.name), "ssd.write");
    EXPECT_EQ(w.bytes(), 8192u); // logical length, not channel units
    EXPECT_EQ(w.start, 0);
    EXPECT_EQ(w.end, writeEnd);
    EXPECT_EQ(w.tenant, aggressor);

    EXPECT_EQ(r.traceId, 2u);
    EXPECT_EQ(r.node, 3u);
    EXPECT_EQ(std::string_view(r.lane), "ssd");
    EXPECT_EQ(std::string_view(r.name), "ssd.read");
    EXPECT_EQ(r.bytes(), 4096u);
    EXPECT_EQ(r.start, writeEnd); // queued behind the write
    EXPECT_EQ(r.end, readEnd);
    EXPECT_EQ(r.tenant, victim);

    // The read's whole wait is blamed on the write's tenant.
    EXPECT_EQ(ct.waitedOps(), 1u);
    EXPECT_EQ(ct.totalWaitTicks(), writeEnd);
    EXPECT_EQ(ct.totalBlameTicks(), writeEnd);
    EXPECT_EQ(ct.blameTicks(victim, aggressor, RK::SsdChannel), writeEnd);
}

// --- end to end ---------------------------------------------------------

namespace {

core::DraidOptions
fourPlusOneOptions()
{
    core::DraidOptions o;
    o.chunkSize = 64 * 1024;
    return o;
}

} // namespace

TEST(TelemetryE2E, WriteSpansExactlyTheExpectedNodes)
{
    // 4+1 RAID-5: a small write touches one data chunk; dRAID offloads
    // the parity update so only the host, the data-chunk node and the
    // parity node should ever see this op.
    DraidRig rig(5, fourPlusOneOptions());
    rig.cluster->tracer().setEnabled(true);

    ec::Buffer data(16 * 1024);
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    const auto &g = rig.host().geometry();
    const sim::NodeId host = rig.cluster->hostId();
    const sim::NodeId data_node =
        rig.cluster->targetNodeId(g.dataDevice(0, 0));
    const sim::NodeId parity_node =
        rig.cluster->targetNodeId(g.parityDevice(0));

    const auto &spans = rig.cluster->tracer().spans();
    ASSERT_FALSE(spans.empty());

    std::set<sim::NodeId> nodes;
    std::set<std::string> host_lanes, data_lanes, parity_lanes;
    for (const auto &s : spans) {
        // One user op -> every span carries its trace id.
        EXPECT_EQ(s.traceId, 1u) << s.name;
        EXPECT_LE(s.start, s.end) << s.name;
        nodes.insert(s.node);
        if (s.node == host)
            host_lanes.insert(s.lane);
        else if (s.node == data_node)
            data_lanes.insert(s.lane);
        else if (s.node == parity_node)
            parity_lanes.insert(s.lane);
    }

    EXPECT_EQ(nodes, (std::set<sim::NodeId>{host, data_node, parity_node}));

    // Host side: the op-level span plus its NIC transmit.
    EXPECT_TRUE(host_lanes.count("op"));
    EXPECT_TRUE(host_lanes.count("nic.tx"));
    // Data node: server CPU, SSD channel, and the forwarded parity delta.
    EXPECT_TRUE(data_lanes.count("cpu"));
    EXPECT_TRUE(data_lanes.count("ssd"));
    // Parity node: absorbs the delta and writes the new parity.
    EXPECT_TRUE(parity_lanes.count("ssd"));
}

TEST(TelemetryE2E, RegistryExposesPerNodeCountersAfterIo)
{
    DraidRig rig(5, fourPlusOneOptions());
    ec::Buffer data(16 * 1024);
    data.fillPattern(4);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    auto &reg = rig.cluster->telemetry().metrics();
    const auto &g = rig.host().geometry();
    const std::string data_name =
        rig.cluster->nodeName(rig.cluster->targetNodeId(g.dataDevice(0, 0)));

    // Per-node NIC / CPU / SSD probes reflect the traffic of the write.
    EXPECT_GT(reg.probeValue("host0.nic.tx_bytes"), 0.0);
    EXPECT_GT(reg.probeValue(data_name + ".nic.rx_bytes"), 0.0);
    EXPECT_GT(reg.probeValue(data_name + ".cpu.busy_ticks"), 0.0);
    EXPECT_GT(reg.probeValue(data_name + ".ssd.writes"), 0.0);

    // HostCounters are folded in as probes, not duplicated.
    EXPECT_DOUBLE_EQ(reg.probeValue("host0.draid.rmw_writes") +
                         reg.probeValue("host0.draid.rcw_writes") +
                         reg.probeValue("host0.draid.full_stripe_writes"),
                     1.0);

    // The op latency landed in the host histogram.
    auto &lat = reg.histogram("host0.draid.write_latency_us", {});
    EXPECT_EQ(lat.count(), 1u);
    EXPECT_GT(lat.mean(), 0.0);

    // And the whole snapshot serializes to valid JSON.
    std::ostringstream os;
    rig.cluster->telemetry().writeMetricsJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid());
}

TEST(TelemetryE2E, UtilizationSamplerCollectsBusyFractions)
{
    DraidRig rig(5, fourPlusOneOptions());
    rig.cluster->startUtilizationSampling(sim::Ticks::us(10));

    ec::Buffer data(256 * 1024); // a full stripe keeps the NICs busy
    data.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    const auto &samples = rig.cluster->telemetry().sampler().samples();
    ASSERT_FALSE(samples.empty());
    bool saw_busy = false;
    for (const auto &s : samples) {
        EXPECT_GE(s.value, 0.0) << s.name;
        EXPECT_LE(s.value, 1.0 + 1e-9) << s.name;
        saw_busy |= s.value > 0.0;
    }
    EXPECT_TRUE(saw_busy);
}

// --- determinism guard --------------------------------------------------

TEST(TelemetryDeterminism, TracingDoesNotPerturbCompletionTicks)
{
    // Identical scenario twice: once dark, once with tracing + sampling.
    // Telemetry is observe-only, so completion ticks must be identical.
    auto run = [](bool telemetry_on) {
        DraidRig rig(6, fourPlusOneOptions());
        if (telemetry_on) {
            rig.cluster->tracer().setEnabled(true);
            rig.cluster->startUtilizationSampling(sim::Ticks::us(20));
        }

        std::vector<sim::Tick> ticks;
        ec::Buffer big(192 * 1024);
        big.fillPattern(6);
        EXPECT_TRUE(writeSync(rig.sim(), rig.host(), 8192, big));
        ticks.push_back(rig.sim().now().raw());

        ec::Buffer small(16 * 1024);
        small.fillPattern(7);
        EXPECT_TRUE(writeSync(rig.sim(), rig.host(), 0, small));
        ticks.push_back(rig.sim().now().raw());

        bool ok = false;
        readSync(rig.sim(), rig.host(), 4096, 64 * 1024, &ok);
        EXPECT_TRUE(ok);
        ticks.push_back(rig.sim().now().raw());
        return ticks;
    };

    EXPECT_EQ(run(false), run(true));
}
