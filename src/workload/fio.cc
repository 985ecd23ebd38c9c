#include "workload/fio.h"

#include <cassert>

#include "telemetry/interference.h"

namespace draid::workload {

FioJob::FioJob(sim::Simulator &sim, blockdev::BlockDevice &dev,
               const FioConfig &config)
    : sim_(sim), dev_(dev), cfg_(config), rng_(config.seed)
{
    const std::uint64_t span = cfg_.workingSetBytes == 0
                                   ? dev_.sizeBytes()
                                   : std::min(cfg_.workingSetBytes,
                                              dev_.sizeBytes());
    slots_ = span / cfg_.ioSize;
    assert(slots_ > 0);
}

std::uint64_t
FioJob::pickOffset()
{
    if (cfg_.offsetPicker)
        return cfg_.offsetPicker(rng_);
    if (cfg_.sequential) {
        const std::uint64_t off = (seqPos_ % slots_) * cfg_.ioSize;
        ++seqPos_;
        return off;
    }
    return rng_.nextBounded(slots_) * cfg_.ioSize;
}

FioResult
FioJob::run()
{
    start([this] { sim_.stop(); });
    sim_.run();
    return result();
}

void
FioJob::start(std::function<void()> on_all_complete)
{
    onAllComplete_ = std::move(on_all_complete);
    latency_.clear();
    meter_.start(sim_.now());

    const int depth = std::min<std::uint64_t>(cfg_.ioDepth, cfg_.numOps);
    for (int i = 0; i < depth; ++i)
        issueNext();
    if (cfg_.numOps == 0 && onAllComplete_)
        onAllComplete_();
}

FioResult
FioJob::result() const
{
    FioResult r;
    r.bandwidthMBps = meter_.bandwidthMBps();
    r.kiops = meter_.kiops();
    r.avgLatencyUs = latency_.mean() / sim::kMicrosecond;
    r.p50LatencyUs =
        static_cast<double>(latency_.percentile(50).raw()) / sim::kMicrosecond;
    r.p99LatencyUs =
        static_cast<double>(latency_.percentile(99).raw()) / sim::kMicrosecond;
    r.p999LatencyUs =
        static_cast<double>(latency_.p999().raw()) / sim::kMicrosecond;
    r.errors = errors_;
    return r;
}

void
FioJob::issueNext()
{
    if (issued_ >= cfg_.numOps)
        return;
    ++issued_;
    const std::uint64_t offset = pickOffset();
    const sim::Ticks t0 = sim_.now();
    const std::uint32_t bytes = cfg_.ioSize;

    // Mark the issuing tenant so the op minted inside read()/write()
    // binds to it for contention attribution.
    if (cfg_.contention != nullptr)
        cfg_.contention->setCurrentTenant(cfg_.tenant);

    if (rng_.nextBool(cfg_.readRatio)) {
        dev_.read(offset, bytes,
                  [this, t0, bytes](blockdev::IoStatus st, ec::Buffer) {
                      onComplete(t0, bytes, st == blockdev::IoStatus::kOk);
                  });
    } else {
        auto data = ec::Buffer::uninitialized(bytes);
        data.fill(static_cast<std::uint8_t>(issued_));
        dev_.write(offset, std::move(data),
                   [this, t0, bytes](blockdev::IoStatus st) {
                       onComplete(t0, bytes, st == blockdev::IoStatus::kOk);
                   });
    }
}

void
FioJob::onComplete(sim::Ticks issued, std::uint32_t bytes, bool ok)
{
    ++completed_;
    if (!ok)
        ++errors_;
    latency_.record(sim_.now() - issued);
    meter_.complete(bytes);
    if (issued_ < cfg_.numOps) {
        issueNext();
    } else if (completed_ == cfg_.numOps) {
        meter_.finish(sim_.now());
        if (onAllComplete_)
            onAllComplete_();
    }
}

std::vector<FioResult>
runConcurrent(sim::Simulator &sim, std::vector<FioJob *> jobs)
{
    std::size_t remaining = 0;
    for (FioJob *job : jobs) {
        if (job != nullptr)
            ++remaining;
    }
    // A zero-op job completes inside start(), decrementing immediately;
    // counting every job first keeps the countdown exact either way.
    for (FioJob *job : jobs) {
        if (job == nullptr)
            continue;
        job->start([&sim, &remaining] {
            if (--remaining == 0)
                sim.stop();
        });
    }
    if (remaining > 0)
        sim.run();

    std::vector<FioResult> out;
    out.reserve(jobs.size());
    for (FioJob *job : jobs)
        out.push_back(job != nullptr ? job->result() : FioResult{});
    return out;
}

} // namespace draid::workload
