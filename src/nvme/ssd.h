/**
 * @file
 * NVMe SSD model: an in-memory backing store behind one shared media
 * channel with distinct read and write service rates.
 *
 * The rates default to the paper's drive (Dell Ent NVMe AGN MU U.2
 * 1.6 TB): ~19 Gbps (§2.3) sustained write, ~3.2 GB/s read. Reads and
 * writes share the channel — concurrent mixed traffic divides the media
 * bandwidth, which is what caps read-modify-write throughput at the
 * "maximum bandwidth eight SSDs can provide" plateau the paper reports
 * (§9.3). Fixed media latencies apply per direction on top of queueing.
 */

#ifndef DRAID_NVME_SSD_H
#define DRAID_NVME_SSD_H

#include <cstdint>
#include <map>
#include <memory>

#include "blockdev/block_device.h"
#include "blockdev/memory_bdev.h"
#include "sim/pipe.h"
#include "sim/service.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace draid::telemetry {
class EventJournal;
}

namespace draid::nvme {

/** Calibrated performance profile of one drive. */
struct SsdConfig
{
    std::uint64_t capacity = 64ull << 30; ///< logical bytes
    double readBw = 3.2e9;                ///< bytes/s
    double writeBw = 2.375e9;             ///< bytes/s (~19 Gbps, §2.3)
    sim::Ticks readLatency = sim::Ticks::us(84);
    sim::Ticks writeLatency = sim::Ticks::us(14);
    sim::Ticks perCommand = sim::Ticks::us(2); ///< channel occupancy/cmd
};

/** One simulated NVMe drive. */
class Ssd : public blockdev::BlockDevice
{
  public:
    Ssd(sim::Simulator &sim, const SsdConfig &config);

    std::uint64_t sizeBytes() const override { return config_.capacity; }

    void read(std::uint64_t offset, std::uint32_t length,
              blockdev::ReadCallback cb) override;

    void write(std::uint64_t offset, ec::Buffer data,
               blockdev::WriteCallback cb) override;

    /**
     * Traced variants: when @p trace is nonzero, report the exact
     * media-channel window to the attached observer as an "ssd.read" /
     * "ssd.write" ServiceRecord carrying the logical length. Timing is
     * identical to the untraced calls.
     */
    void read(std::uint64_t offset, std::uint32_t length,
              std::uint64_t trace, blockdev::ReadCallback cb);
    void write(std::uint64_t offset, ec::Buffer data, std::uint64_t trace,
               blockdev::WriteCallback cb);

    /** Attach the observe-only telemetry tap (telemetry::LaneTap). */
    void setObserver(sim::ServiceObserver *observer)
    {
        observer_ = observer;
    }

    /**
     * Attach the cluster event journal: a read hitting a latent sector
     * error records a LatentSectorError event (a = media offset, b = len)
     * at discovery time, as node @p node. Observe-only.
     */
    void bindJournal(telemetry::EventJournal *journal, sim::NodeId node);

    /**
     * Gray-drive hook (fault campaigns): service times — channel occupancy
     * and fixed media latency — scale by @p factor (>= 1.0). The drive
     * keeps serving correctly, only slower; 1.0 restores nominal speed.
     */
    void setDegradeFactor(double factor);
    double degradeFactor() const { return degrade_; }

    /**
     * Plant a latent sector error over media bytes [offset, offset+len):
     * until the range is rewritten, any read intersecting it completes
     * with IoStatus::kError after normal media timing (the drive burns the
     * access before reporting the unreadable sector). A write that touches
     * a planted range clears it (sector remap on rewrite), silently.
     */
    void plantLatentSectorError(std::uint64_t offset, std::uint32_t length);

    /** Planted-and-not-yet-cleared latent sector error ranges. */
    std::size_t latentSectorErrors() const { return lse_.size(); }

    /** Reads that hit a latent sector error (discoveries, not ranges). */
    std::uint64_t latentErrorsHit() const { return lseHits_; }

    /** Direct store access for scrub checks in tests (no timing). */
    blockdev::MemoryBdev &store() { return store_; }
    const blockdev::MemoryBdev &store() const { return store_; }

    const SsdConfig &config() const { return config_; }

    std::uint64_t readsCompleted() const { return reads_; }
    std::uint64_t writesCompleted() const { return writes_; }
    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

    /** Shared-channel utilization accessor (rebuild load balancing). */
    const sim::Pipe &channel() const { return channel_; }

  private:
    sim::Simulator &sim_;
    SsdConfig config_;
    blockdev::MemoryBdev store_;
    /**
     * Shared media channel, scaled to 1 byte/ns: a transfer of N "bytes"
     * occupies the channel for N ns, so read and write service times are
     * expressed by scaling the byte count with the per-direction rate.
     */
    sim::Pipe channel_;
    sim::ServiceObserver *observer_ = nullptr;
    telemetry::EventJournal *journal_ = nullptr;
    sim::NodeId journalNode_ = 0;
    /** Gray-drive service-time multiplier (1.0 = healthy). */
    double degrade_ = 1.0;
    /** Latent sector errors: media start offset -> end offset (ordered so
     *  intersection checks are deterministic). */
    // draid-lint: cap(injected LSE ranges; campaign config bounds injections)
    std::map<std::uint64_t, std::uint64_t> lse_;
    std::uint64_t lseHits_ = 0;
    /** Report a traced I/O's channel window, queued since now(). */
    void observe(std::uint64_t trace, sim::Ticks start, std::uint64_t length,
                 const char *what);
    /** First planted range intersecting [offset, offset+length), if any. */
    const std::pair<const std::uint64_t, std::uint64_t> *
    findLse(std::uint64_t offset, std::uint64_t length) const;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
};

} // namespace draid::nvme

#endif // DRAID_NVME_SSD_H
