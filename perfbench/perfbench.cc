/**
 * @file
 * perfbench: host-time benchmark of the dRAID simulator.
 *
 *   draid_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Builds each system of the workload through bench::SystemUnderTest,
 * preloads and (for degraded workloads) fails member 0, then drives a
 * closed-loop workload::FioJob through a CheckedDevice that verifies every
 * read against a shadow of the acked writes. Everything is single-threaded,
 * like the simulator.
 *
 * The simulated work of a run is fixed by (workload, seed, seconds): the
 * op count is a per-workload nominal rate times --seconds, never a
 * function of measured speed, so simulated results repeat exactly and
 * guard against a host-speed change altering the simulation.
 *
 * Set-up (cluster build, preload, markFailed) is repeated kSetupReps
 * times per system and the medians are reported; the last system built
 * runs an untimed warm-up job (a tenth of the measured ops, seed + 1),
 * the measured job, and a read-back of the whole working set. With
 * --trace 1 set-up runs once and one more traced pass follows:
 * fresh engine profilers for set-up, the measured job and teardown, plus
 * the tracer's self-timing, give the per-module split.
 *
 * Prints one JSON object on stdout: {"complete", "attempted", "failed",
 * "fingerprint", "metrics"}. run.py turns it into the benchmark result.
 * A human-readable report goes to stderr.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "checked_device.h"
#include "ec/buffer.h"
#include "ec/raid6_codec.h"
#include "ec/xor_kernel.h"
#include "harness.h"
#include "telemetry/sim_profiler.h"
#include "workload/fio.h"

namespace draid::perfbench {

namespace {

using bench::SystemKind;

constexpr int kSetupReps = 3;
constexpr std::uint64_t kWindows = 100;
constexpr std::uint64_t kMiB = 1ull << 20;

struct Workload
{
    const char *name;
    raid::RaidLevel level;
    std::uint32_t width;
    std::uint32_t chunkKb;
    std::uint32_t ioSize;
    double readRatio;
    int ioDepth;
    std::uint64_t workingSet;
    /** Member 0 is failed after the preload. */
    bool degraded;
    std::vector<SystemKind> systems;
    /**
     * Measured ops per --seconds, split evenly over the systems: roughly
     * what this workload completes per host second on a 4-core x86 dev
     * container, so a run measures about --seconds. A constant, so the
     * simulated work does not depend on how fast the host is.
     */
    std::uint64_t opsPerSecond;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        // Event-bound: ~15 events per op, no parity work once preloaded.
        {"read4k-r5", raid::RaidLevel::kRaid5, 6, 512, 4096, 1.0, 64,
         512 * kMiB, false, {SystemKind::kDraid}, 75000},
        // Byte-bound: the RAID-6 read-modify-write path (P and Q deltas).
        {"write128k-r6", raid::RaidLevel::kRaid6, 8, 512, 128 * 1024, 0.0,
         32, 768 * kMiB, false, {SystemKind::kDraid}, 2200},
        // Degraded reconstruct/reduce on all three systems; the only
        // workload that runs the baselines.
        {"mixed64k-r5-degraded", raid::RaidLevel::kRaid5, 8, 512,
         64 * 1024, 0.5, 32, 512 * kMiB, true,
         {SystemKind::kLinux, SystemKind::kSpdk, SystemKind::kDraid}, 12000},
    };
    return all;
}

const char *
systemKey(SystemKind kind)
{
    switch (kind) {
      case SystemKind::kLinux: return "linux";
      case SystemKind::kSpdk: return "spdk";
      case SystemKind::kDraid: return "draid";
    }
    return "?";
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Exact simulation counters, read through the public cluster API. */
struct Counts
{
    std::uint64_t events = 0;  ///< engine events executed
    std::uint64_t msgs = 0;    ///< fabric messages delivered
    std::uint64_t ios = 0;     ///< SSD reads + writes completed
    std::uint64_t records = 0; ///< flight-recorder records (spans)

    Counts operator-(const Counts &o) const
    {
        return {events - o.events, msgs - o.msgs, ios - o.ios,
                records - o.records};
    }
    bool operator==(const Counts &) const = default;
};

Counts
snapshot(bench::SystemUnderTest &sut)
{
    cluster::Cluster &c = sut.cluster();
    Counts n;
    n.events = sut.sim().eventsExecuted();
    n.msgs = c.fabric().messagesDelivered();
    for (std::uint32_t i = 0; i < c.numTargets(); ++i) {
        if (c.target(i).hasSsd())
            n.ios += c.target(i).ssd().readsCompleted() +
                     c.target(i).ssd().writesCompleted();
    }
    n.records = c.telemetry().flightRecorder().totalRecorded();
    return n;
}

std::uint64_t
tracerSelfNs(bench::SystemUnderTest &sut)
{
    const telemetry::Tracer &t = sut.cluster().tracer();
    return t.spanCost().ns + t.opCost().ns + t.counterCost().ns;
}

/**
 * Issue @p issue(offset, length, done) over [0, @p span) in 4 MB steps,
 * 16 in flight, and run the simulator until every one has called done.
 */
template <typename Issue>
void
sweep(sim::Simulator &sim, std::uint64_t span, Issue issue)
{
    constexpr std::uint32_t kIo = 4u << 20;
    std::uint64_t pos = 0;
    int outstanding = 0;
    int resumeBelow = -1;
    auto done = [&] {
        --outstanding;
        if (resumeBelow >= 0 && outstanding < resumeBelow) {
            resumeBelow = -1;
            sim.stop();
        }
    };
    // Recurring controller timers keep the queue non-empty, so the
    // drain waits on the completion count, not on an empty queue.
    auto drainBelow = [&](int n) {
        resumeBelow = n;
        sim.run();
    };
    while (pos < span) {
        const std::uint32_t len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kIo, span - pos));
        ++outstanding;
        issue(pos, len, done);
        pos += len;
        if (outstanding >= 16)
            drainBelow(8);
    }
    while (outstanding > 0)
        drainBelow(1);
}

/**
 * Fill the working set with one byte per 4 MB step, derived from the
 * offset, so measured reads hit written data and measured writes see real
 * old data and parity. Unlike bench::runFio's preload this writes through
 * the CheckedDevice, so the shadow learns what every block holds.
 */
void
preload(sim::Simulator &sim, CheckedDevice &dev, std::uint64_t span)
{
    sweep(sim, span, [&dev](std::uint64_t pos, std::uint32_t len,
                            auto &done) {
        ec::Buffer data(len);
        data.fill(static_cast<std::uint8_t>(pos >> 22));
        dev.write(pos, std::move(data), [&done](blockdev::IoStatus) {
            done();
        });
    });
}

/** Read the working set back; CheckedDevice checks every block. */
void
readBack(sim::Simulator &sim, CheckedDevice &dev, std::uint64_t span)
{
    sweep(sim, span, [&dev](std::uint64_t pos, std::uint32_t len,
                            auto &done) {
        dev.read(pos, len, [&done](blockdev::IoStatus, ec::Buffer) {
            done();
        });
    });
}

/** One system's measured phase. */
struct Measured
{
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    bool complete = false;
    std::uint64_t ns = 0;    ///< whole measured phase, host ns
    std::uint64_t runNs = 0; ///< inside sim.run()
    std::vector<double> windowMs;
    workload::FioResult result;
    Counts counts;
    std::uint64_t submitNs = 0;
    std::uint64_t checkNs = 0;
    std::uint64_t telemetryNs = 0;
    std::uint64_t checkedBlocks = 0;
    std::uint64_t badBlocks = 0;
    std::uint64_t skippedBlocks = 0;
    /** Unmeasured ops through the checked device: the warm-up job and
     *  the read-back of the working set (untraced passes only). */
    std::uint64_t warmupOps = 0;
    std::uint64_t warmupFailed = 0;
    std::uint64_t readbackOps = 0;
    std::uint64_t readbackFailed = 0;
    std::uint64_t readbackChecked = 0; ///< blocks checked by the read-back
};

workload::FioConfig
fioConfig(const Workload &w, std::uint64_t num_ops, std::uint64_t seed)
{
    workload::FioConfig fio;
    fio.ioSize = w.ioSize;
    fio.readRatio = w.readRatio;
    fio.ioDepth = w.ioDepth;
    fio.numOps = num_ops;
    fio.workingSetBytes = w.workingSet;
    fio.seed = seed;
    return fio;
}

Measured
measure(bench::SystemUnderTest &sut, CheckedDevice &dev,
        const workload::FioConfig &fio)
{
    const std::uint64_t num_ops = fio.numOps;
    sim::Simulator &sim = sut.sim();
    const Counts before = snapshot(sut);
    const std::uint64_t telemetryBefore = tracerSelfNs(sut);
    const std::uint64_t failedBefore = dev.failedOps();
    const std::uint64_t completedBefore = dev.completedOps();
    const std::uint64_t submitBefore = dev.submitNs();
    const std::uint64_t checkBefore = dev.checkNs();
    const std::uint64_t checkedBefore = dev.checkedBlocks();
    const std::uint64_t badBefore = dev.badBlocks();
    const std::uint64_t skippedBefore = dev.skippedBlocks();

    // Same steps as FioJob::run(), split so run() can be timed alone.
    const std::uint64_t t0 = hostNowNs();
    workload::FioJob job(sim, dev, fio);
    dev.startWindows(num_ops / kWindows);
    job.start([&sim] { sim.stop(); });
    const std::uint64_t r0 = hostNowNs();
    sim.run();
    const std::uint64_t r1 = hostNowNs();
    Measured m;
    m.result = job.result();
    m.complete = job.done();
    m.ns = hostNowNs() - t0;
    m.runNs = r1 - r0;
    for (std::uint64_t ns : dev.windowNs())
        m.windowMs.push_back(static_cast<double>(ns) / 1e6);
    dev.startWindows(0);

    m.ops = dev.completedOps() - completedBefore;
    m.complete = m.complete && m.ops == num_ops;
    m.failed = dev.failedOps() - failedBefore;
    m.counts = snapshot(sut) - before;
    m.submitNs = dev.submitNs() - submitBefore;
    m.checkNs = dev.checkNs() - checkBefore;
    m.telemetryNs = tracerSelfNs(sut) - telemetryBefore;
    m.checkedBlocks = dev.checkedBlocks() - checkedBefore;
    m.badBlocks = dev.badBlocks() - badBefore;
    m.skippedBlocks = dev.skippedBlocks() - skippedBefore;
    return m;
}

/** Everything one system contributes to a run. */
struct SystemRun
{
    SystemKind kind = SystemKind::kDraid;
    std::vector<double> buildS, preloadS, failS, teardownS;
    bool preloadOk = true;
    Measured measured;
    /** Traced pass (--trace 1 only). */
    Measured traced;
    telemetry::SimProfiler::Report setupReport, measuredReport,
        teardownReport;

    double setupS() const
    {
        std::vector<double> total;
        for (std::size_t i = 0; i < buildS.size(); ++i)
            total.push_back(buildS[i] + preloadS[i] + failS[i]);
        return median(total);
    }
};

/** Fresh engine profilers for the three phases of a traced pass. */
struct PhaseProfilers
{
    telemetry::SimProfiler setup, measured, teardown;
};

/**
 * Build, preload and (if degraded) fail one system, measure it if @p out
 * is set, then tear it down. An untraced pass records each phase's host
 * time, and after measuring reads the working set back to check it. A
 * traced pass (@p prof set) observes each phase with its own profiler.
 */
void
runPass(const Workload &w, SystemRun &sr, std::uint64_t num_ops,
        std::uint64_t seed, Measured *out, PhaseProfilers *prof)
{
    bench::ArrayConfig array;
    array.level = w.level;
    array.width = w.width;
    array.chunkKb = w.chunkKb;

    const std::uint64_t b0 = hostNowNs();
    auto sut = std::make_unique<bench::SystemUnderTest>(sr.kind, array);
    const std::uint64_t b1 = hostNowNs();
    if (prof != nullptr) {
        prof->setup.attach(sut->sim());
        sut->cluster().tracer().setSelfTiming(true);
    }
    auto dev = std::make_unique<CheckedDevice>(sut->device(), w.workingSet);
    preload(sut->sim(), *dev, w.workingSet);
    sr.preloadOk = sr.preloadOk && dev->failedOps() == 0;
    const std::uint64_t preloadOps = dev->completedOps();
    const std::uint64_t preloadFailed = dev->failedOps();
    const std::uint64_t b2 = hostNowNs();
    if (w.degraded)
        sut->markFailed(0);
    const std::uint64_t b3 = hostNowNs();

    if (out != nullptr) {
        // Warm-up: until a timeout period of simulated time has passed,
        // per-op timers have not started to expire and the event heap is
        // still growing, so the first ops run faster than the plateau.
        workload::FioConfig warm = fioConfig(w, num_ops / 10, seed + 1);
        workload::FioJob(sut->sim(), *dev, warm).run();
        const std::uint64_t warmOps = dev->completedOps();
        const std::uint64_t warmFailed = dev->failedOps();

        if (prof != nullptr)
            prof->measured.attach(sut->sim());
        *out = measure(*sut, *dev, fioConfig(w, num_ops, seed));
        out->warmupOps = warmOps - preloadOps;
        out->warmupFailed = warmFailed - preloadFailed;
        if (prof == nullptr) {
            const std::uint64_t completed = dev->completedOps();
            const std::uint64_t failed = dev->failedOps();
            const std::uint64_t checked = dev->checkedBlocks();
            readBack(sut->sim(), *dev, w.workingSet);
            out->readbackChecked = dev->checkedBlocks() - checked;
            out->readbackOps = dev->completedOps() - completed;
            out->readbackFailed = dev->failedOps() - failed;
        }
    }

    if (prof != nullptr)
        prof->teardown.attach(sut->sim());
    const std::uint64_t d0 = hostNowNs();
    dev.reset();
    sut.reset();
    const std::uint64_t d1 = hostNowNs();

    if (prof == nullptr) {
        sr.buildS.push_back(seconds(b1 - b0));
        sr.preloadS.push_back(seconds(b2 - b1));
        sr.failS.push_back(seconds(b3 - b2));
        sr.teardownS.push_back(seconds(d1 - d0));
    }
}

/** Module a profiler label belongs to (DESIGN.md §5.7 taxonomy). */
std::string
moduleOf(const std::string &label, SystemKind kind)
{
    auto starts = [&label](const char *p) {
        return label.rfind(p, 0) == 0;
    };
    if (starts("fabric.") || starts("nic."))
        return "net";
    if (starts("ssd."))
        return "nvme";
    if (starts("parity.") || starts("reduce."))
        return "ec";
    if (starts("nvmf."))
        return "blockdev";
    if (starts("hostraid."))
        return "baselines";
    if (starts("host.") || starts("srv.") || starts("lock.") ||
        starts("failure.") || starts("rebuild."))
        return kind == SystemKind::kDraid ? "core" : "baselines";
    return "other";
}

const std::vector<std::string> kModules = {"net",      "nvme", "ec",
                                           "core",     "baselines",
                                           "blockdev", "other"};

/** Callback ns per module, plus engine ns (run time minus callbacks). */
struct Split
{
    std::map<std::string, double> moduleNs;
    double callbackNs = 0;
    double engineNs = 0;
    double runNs = 0;
    std::uint64_t events = 0;
    std::size_t maxQueueDepth = 0;
    /** label -> ns, for the human report. */
    std::map<std::string, double> labelNs;
};

void
addSplit(Split &s, const telemetry::SimProfiler::Report &r, SystemKind kind)
{
    for (const auto &src : r.sources) {
        const double ns = static_cast<double>(src.totalNs);
        s.moduleNs[moduleOf(src.label, kind)] += ns;
        s.labelNs[src.label] += ns;
        s.callbackNs += ns;
    }
    s.runNs += static_cast<double>(r.wallNs);
    s.engineNs = s.runNs - s.callbackNs;
    s.events += r.events;
    s.maxQueueDepth = std::max(s.maxQueueDepth, r.maxQueueDepth);
}

/** Median of nine timed batches of @p fn, in ns per call. */
template <typename Fn>
double
timePerCall(Fn fn, int calls_per_batch)
{
    std::vector<double> per;
    for (int rep = 0; rep < 9; ++rep) {
        const std::uint64_t t0 = hostNowNs();
        for (int i = 0; i < calls_per_batch; ++i)
            fn();
        per.push_back(static_cast<double>(hostNowNs() - t0) /
                      calls_per_batch);
    }
    return median(per);
}

/** Direct probes of the public ec:: kernels. */
struct EcProbe
{
    double xorGBps = 0;
    double gfGBps = 0;
    double bufferAllocNs = 0;
};

EcProbe
probeEc()
{
    constexpr std::size_t kLen = 128 * 1024;
    ec::Buffer a(kLen), b(kLen), q(kLen);
    a.fillPattern(1);
    b.fillPattern(2);
    q.fillPattern(3);
    EcProbe p;
    const double xorNs = timePerCall([&] { ec::xorInto(a, b); }, 2000);
    p.xorGBps = kLen / xorNs;
    const double gfNs =
        timePerCall([&] { ec::Raid6Codec::applyQDelta(q, b, 3); }, 200);
    p.gfGBps = kLen / gfNs;
    volatile std::uint8_t sink = 0;
    p.bufferAllocNs = timePerCall(
        [&] {
            ec::Buffer buf(512 * 1024);
            sink = sink + buf[buf.size() - 1];
        },
        200);
    (void)sink;
    return p;
}

/** Peak resident set size of this process (VmHWM), in MB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Ordered metric rows: name, value, unit. */
struct Metrics
{
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows;

    void add(std::string name, double value, const char *unit)
    {
        rows.push_back({std::move(name), value, unit});
    }
};

/** Host ops per second over the untraced measured phases. */
double
opsPerSecond(const std::vector<SystemRun> &runs)
{
    double ops = 0, ns = 0;
    for (const SystemRun &sr : runs) {
        ops += static_cast<double>(sr.measured.ops);
        ns += static_cast<double>(sr.measured.ns);
    }
    return ops / (ns / 1e9);
}

const Measured *
findSystem(const std::vector<SystemRun> &runs, SystemKind kind)
{
    for (const SystemRun &sr : runs) {
        if (sr.kind == kind)
            return &sr.measured;
    }
    return nullptr;
}

/** The end-to-end metrics, from the untraced pass. */
Metrics
endToEnd(const std::vector<SystemRun> &runs)
{
    double setupS = 0, wallS = 0, winP50 = 0, winP90 = 0;
    for (const SystemRun &sr : runs) {
        const Measured &m = sr.measured;
        setupS += sr.setupS();
        wallS += sr.setupS() + seconds(m.ns) + median(sr.teardownS);
        // Each system's phase has kWindows windows of equal op count;
        // summing per-system percentiles gives host ms per 1% of the
        // workload's ops.
        winP50 += percentile(m.windowMs, 50);
        winP90 += percentile(m.windowMs, 90);
    }
    const Measured &d = *findSystem(runs, SystemKind::kDraid);
    Metrics out;
    out.add("ops_per_s", opsPerSecond(runs), "1/s");
    out.add("win_ms_p50", winP50, "ms");
    out.add("win_ms_p90", winP90, "ms");
    out.add("setup_s", setupS, "s");
    out.add("wall_s", wallS, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("sim_MBps.draid", d.result.bandwidthMBps, "MB/s");
    out.add("sim_p99_us.draid", d.result.p99LatencyUs, "us");
    return out;
}

void
printSplit(const char *title, Split &s, double phase_ns)
{
    if (s.events == 0) {
        std::fprintf(stderr, "## %s: no events\n", title);
        return;
    }
    std::fprintf(stderr, "## %s: %.3f s, engine %.1f%%", title,
                 phase_ns / 1e9, 100 * s.engineNs / phase_ns);
    for (const std::string &mod : kModules) {
        if (s.moduleNs[mod] > 0)
            std::fprintf(stderr, ", %s %.1f%%", mod.c_str(),
                         100 * s.moduleNs[mod] / phase_ns);
    }
    std::fprintf(stderr, "\n");
}

/**
 * The per-layer metrics, from the traced pass. Module rows are callback
 * time by profiler label; engine time is run() time minus callback time;
 * workload time is the measured phase minus run() time. Those parts sum
 * to the measured phase up to residual_share. Telemetry, submit and
 * integrity time run inside callbacks, so they are not part of the sum.
 */
Metrics
perLayer(const std::vector<SystemRun> &runs, const EcProbe &ecp)
{
    Split split;
    double ns = 0, runNs = 0, ops = 0;
    double telemetryNs = 0, submitNs = 0, checkNs = 0;
    double buildS = 0, preloadS = 0, teardownS = 0;
    Counts counts;
    for (const SystemRun &sr : runs) {
        addSplit(split, sr.measuredReport, sr.kind);
        const Measured &t = sr.traced;
        ns += static_cast<double>(t.ns);
        runNs += static_cast<double>(t.runNs);
        ops += static_cast<double>(t.ops);
        telemetryNs += static_cast<double>(t.telemetryNs);
        submitNs += static_cast<double>(t.submitNs);
        checkNs += static_cast<double>(t.checkNs);
        counts.events += t.counts.events;
        counts.msgs += t.counts.msgs;
        counts.ios += t.counts.ios;
        counts.records += t.counts.records;
        buildS += median(sr.buildS);
        preloadS += median(sr.preloadS);
        teardownS += median(sr.teardownS);
    }
    const double workloadNs = ns - runNs;
    double parts = workloadNs + split.engineNs;
    for (const std::string &mod : kModules)
        parts += split.moduleNs[mod];
    const double perOp = 1.0 / ops;

    Metrics out;
    out.add("sim.engine_ns_per_event",
            split.engineNs / static_cast<double>(split.events), "ns");
    out.add("sim.events_per_op", counts.events * perOp, "events/op");
    out.add("sim.events_per_s",
            static_cast<double>(split.events) / (split.runNs / 1e9), "1/s");
    out.add("sim.max_queue_depth", static_cast<double>(split.maxQueueDepth),
            "count");
    out.add("net.ns_per_op", split.moduleNs["net"] * perOp, "ns");
    out.add("net.msgs_per_op", counts.msgs * perOp, "msgs/op");
    out.add("nvme.ns_per_op", split.moduleNs["nvme"] * perOp, "ns");
    out.add("nvme.ios_per_op", counts.ios * perOp, "ios/op");
    out.add("ec.ns_per_op", split.moduleNs["ec"] * perOp, "ns");
    out.add("ec.xor_GBps", ecp.xorGBps, "GB/s");
    out.add("ec.gf_GBps", ecp.gfGBps, "GB/s");
    out.add("ec.buffer_alloc_ns", ecp.bufferAllocNs, "ns");
    out.add("core.ns_per_op", split.moduleNs["core"] * perOp, "ns");
    out.add("baselines.ns_per_op", split.moduleNs["baselines"] * perOp,
            "ns");
    out.add("blockdev.ns_per_op", split.moduleNs["blockdev"] * perOp, "ns");
    out.add("blockdev.submit_ns_per_op", submitNs * perOp, "ns");
    out.add("telemetry.ns_per_op", telemetryNs * perOp, "ns");
    out.add("telemetry.spans_per_op", counts.records * perOp, "spans/op");
    out.add("integrity.ns_per_op", checkNs * perOp, "ns");
    out.add("other.ns_per_op", split.moduleNs["other"] * perOp, "ns");
    out.add("workload.ns_per_op", workloadNs * perOp, "ns");
    out.add("residual_share", (ns - parts) / ns, "ratio");
    out.add("cluster.build_s", buildS, "s");
    out.add("cluster.preload_s", preloadS, "s");
    out.add("cluster.teardown_s", teardownS, "s");
    out.add("trace.overhead", ops / (ns / 1e9) / opsPerSecond(runs),
            "ratio");
    // 0 when the workload does not run that system.
    for (SystemKind kind : {SystemKind::kSpdk, SystemKind::kLinux}) {
        const Measured *m = findSystem(runs, kind);
        out.add(std::string("sim_MBps.") + systemKey(kind),
                m ? m->result.bandwidthMBps : 0.0, "MB/s");
        out.add(std::string("sim_p99_us.") + systemKey(kind),
                m ? m->result.p99LatencyUs : 0.0, "us");
    }

    // Human report: the measured split by module and by label, and the
    // set-up and teardown splits behind setup_s and wall_s.
    printSplit("measured phase (traced)", split, ns);
    std::fprintf(stderr, "##   workload %.1f%%\n", 100 * workloadNs / ns);
    std::vector<std::pair<double, std::string>> labels;
    for (const auto &[label, lns] : split.labelNs)
        labels.push_back({lns, label});
    std::sort(labels.rbegin(), labels.rend());
    for (const auto &[lns, label] : labels)
        std::fprintf(stderr, "##   %-28s %6.1f%%\n", label.c_str(),
                     100 * lns / ns);
    Split setup, teardown;
    for (const SystemRun &sr : runs) {
        addSplit(setup, sr.setupReport, sr.kind);
        addSplit(teardown, sr.teardownReport, sr.kind);
    }
    printSplit("set-up run() time (traced)", setup, setup.runNs);
    printSplit("teardown run() time (traced)", teardown, teardown.runNs);
    return out;
}

void
printSystems(const std::vector<SystemRun> &runs)
{
    for (const SystemRun &sr : runs) {
        const Measured &m = sr.measured;
        std::fprintf(
            stderr,
            "## %s: %llu ops in %.3f s (%zu windows), %llu failed; blocks "
            "checked %llu, bad %llu, skipped %llu; warm-up %llu ops, %llu "
            "failed; read-back %llu ops, %llu failed, %llu blocks "
            "checked; sim %.1f MB/s, p99 %.1f us\n",
            systemKey(sr.kind), static_cast<unsigned long long>(m.ops),
            seconds(m.ns), m.windowMs.size(),
            static_cast<unsigned long long>(m.failed),
            static_cast<unsigned long long>(m.checkedBlocks),
            static_cast<unsigned long long>(m.badBlocks),
            static_cast<unsigned long long>(m.skippedBlocks),
            static_cast<unsigned long long>(m.warmupOps),
            static_cast<unsigned long long>(m.warmupFailed),
            static_cast<unsigned long long>(m.readbackOps),
            static_cast<unsigned long long>(m.readbackFailed),
            static_cast<unsigned long long>(m.readbackChecked),
            m.result.bandwidthMBps, m.result.p99LatencyUs);
    }
}

void
printJson(bool complete, const std::vector<SystemRun> &runs,
          std::uint64_t per_system, const Metrics &metrics)
{
    std::uint64_t attempted = 0, failed = 0;
    for (const SystemRun &sr : runs) {
        const Measured &m = sr.measured;
        attempted += m.warmupOps + m.ops + m.readbackOps;
        failed += m.warmupFailed + m.failed + m.readbackFailed;
    }
    std::printf("{\"complete\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"fingerprint\":{\"ops_per_system\":%llu",
                complete ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(per_system));
    for (const SystemRun &sr : runs) {
        const Measured &m = sr.measured;
        std::printf(",\"%s\":{\"sim_MBps\":%.17g,\"sim_p99_us\":%.17g,"
                    "\"events\":%llu,\"msgs\":%llu,\"ios\":%llu,"
                    "\"spans\":%llu,\"failed\":%llu,\"bad_blocks\":%llu,"
                    "\"warmup_failed\":%llu,\"readback_failed\":%llu}",
                    systemKey(sr.kind), m.result.bandwidthMBps,
                    m.result.p99LatencyUs,
                    static_cast<unsigned long long>(m.counts.events),
                    static_cast<unsigned long long>(m.counts.msgs),
                    static_cast<unsigned long long>(m.counts.ios),
                    static_cast<unsigned long long>(m.counts.records),
                    static_cast<unsigned long long>(m.failed),
                    static_cast<unsigned long long>(m.badBlocks),
                    static_cast<unsigned long long>(m.warmupFailed),
                    static_cast<unsigned long long>(m.readbackFailed));
    }
    std::printf("},\"metrics\":{");
    const char *sep = "";
    for (const Metrics::Row &r : metrics.rows) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                    r.name.c_str(), r.value, r.unit);
        sep = ",";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: draid_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:");
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
run(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    std::uint64_t secs = 0;
    bool traced = false;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            secs = std::strtoull(val, nullptr, 10);
        else if (flag == "--trace")
            traced = std::strcmp(val, "0") != 0;
        else
            return usage();
    }
    const Workload *wp = nullptr;
    for (const Workload &w : workloads()) {
        if (name == w.name)
            wp = &w;
    }
    if (wp == nullptr || secs == 0)
        return usage();
    const Workload &w = *wp;

    // Equal op counts per system, a whole number of windows each.
    const std::uint64_t perSystem =
        std::max<std::uint64_t>(
            w.opsPerSecond * secs / w.systems.size() / kWindows, 1) *
        kWindows;

    bool complete = true;
    std::vector<SystemRun> runs;
    for (SystemKind kind : w.systems) {
        SystemRun sr;
        sr.kind = kind;
        // Per-layer metrics carry no bound, so a traced run sets up once
        // before its traced pass.
        const int reps = traced ? 1 : kSetupReps;
        for (int rep = 0; rep < reps; ++rep)
            runPass(w, sr, perSystem, seed,
                    rep == reps - 1 ? &sr.measured : nullptr, nullptr);
        complete = complete && sr.preloadOk && sr.measured.complete;
        runs.push_back(std::move(sr));
    }

    Metrics metrics;
    if (!traced) {
        metrics = endToEnd(runs);
    } else {
        for (SystemRun &sr : runs) {
            PhaseProfilers prof;
            runPass(w, sr, perSystem, seed, &sr.traced, &prof);
            sr.setupReport = prof.setup.report();
            sr.measuredReport = prof.measured.report();
            sr.teardownReport = prof.teardown.report();
            // Determinism guard: profiling must not perturb simulation.
            const Measured &a = sr.measured, &b = sr.traced;
            if (!(a.counts == b.counts && a.failed == b.failed &&
                  a.badBlocks == b.badBlocks &&
                  a.result.bandwidthMBps == b.result.bandwidthMBps &&
                  a.result.p99LatencyUs == b.result.p99LatencyUs)) {
                std::fprintf(stderr,
                             "perfbench: %s traced and untraced passes "
                             "simulated differently\n",
                             systemKey(sr.kind));
                complete = false;
            }
            complete = complete && sr.preloadOk && b.complete;
        }
        metrics = perLayer(runs, probeEc());
    }

    printSystems(runs);
    for (const Metrics::Row &r : metrics.rows)
        std::fprintf(stderr, "%-28s %18.6f %s\n", r.name.c_str(), r.value,
                     r.unit);
    printJson(complete, runs, perSystem, metrics);
    return 0;
}

} // namespace draid::perfbench

int
main(int argc, char **argv)
{
    return draid::perfbench::run(argc, argv);
}
