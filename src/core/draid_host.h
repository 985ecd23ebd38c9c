/**
 * @file
 * The dRAID host-side controller (paper §3, §5, §6).
 *
 * Exposes the virtual RAID block device. The host is a coordinator: it
 * admits one write per stripe (stripe locks with FIFO queueing), decides
 * the write mode, and orchestrates the disaggregated data path; bulk data
 * only crosses the host NIC once per user byte. Normal reads are lock-free
 * (§8); a degraded read takes its stripe's lock shared, so it never
 * reconstructs from a half-applied write.
 *
 * Degraded operation, full-stripe retry on timeouts (§5.4), rebuild
 * orchestration and the bandwidth-aware reducer policy (§6.2) all live
 * here.
 */

#ifndef DRAID_CORE_DRAID_HOST_H
#define DRAID_CORE_DRAID_HOST_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.h"
#include "blockdev/nvmf_initiator.h"
#include "cluster/cluster.h"
#include "core/bw_aware.h"
#include "core/draid.h"
#include "net/fabric.h"
#include "raid/stripe_lock.h"
#include "raid/write_plan.h"
#include "sim/rng.h"

namespace draid::core {

/** Operation counters exposed for benches and tests. */
struct HostCounters
{
    std::uint64_t fullStripeWrites = 0;
    std::uint64_t rmwWrites = 0;
    std::uint64_t rcwWrites = 0;
    std::uint64_t normalReads = 0;
    std::uint64_t degradedReads = 0;
    std::uint64_t degradedWrites = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0; ///< devices declared failed by timeouts
};

/** The dRAID virtual block device. */
class DraidHost : public blockdev::BlockDevice,
                  public net::Endpoint,
                  private sim::DeadlineClient
{
  public:
    /**
     * Builds the host controller over all of @p cluster's targets and
     * installs itself as the host's fabric endpoint. Construct the
     * matching DraidBdev on every target (DraidSystem does both).
     *
     * @param width  member devices; defaults to every cluster target.
     *        Extra cluster targets beyond @p width can serve as spares.
     */
    DraidHost(cluster::Cluster &cluster, const DraidOptions &options,
              std::uint32_t width = 0);

    // --- BlockDevice ---
    std::uint64_t sizeBytes() const override;
    void read(std::uint64_t offset, std::uint32_t length,
              blockdev::ReadCallback cb) override;
    void write(std::uint64_t offset, ec::Buffer data,
               blockdev::WriteCallback cb) override;

    // --- Endpoint ---
    void onMessage(const net::Message &msg) override;

    // --- array management ---
    /** Declare a member device failed (enters degraded state). */
    void markFailed(std::uint32_t device);

    /** Clear the failed state (after rebuild + swap). */
    void clearFailed();

    /**
     * Swap a rebuilt spare into the array: member device @p device is
     * henceforth served by cluster target @p spare_target, and the array
     * returns to normal state. Call after RebuildJob has copied every
     * stripe's chunk onto the spare (§1: spares come from the shared
     * pool, not from pre-provisioned per-array disks).
     */
    void replaceDevice(std::uint32_t device, std::uint32_t spare_target);

    /** Cluster target currently serving member device @p device. */
    std::uint32_t
    targetOf(std::uint32_t device) const
    {
        return targetMap_[device];
    }

    bool isDegraded() const { return failed_.has_value(); }
    std::optional<std::uint32_t> failedDevice() const { return failed_; }

    /**
     * Rebuild the failed chunk of one stripe onto the drive of cluster
     * target @p spare_target (§6). The reduced result travels peer-to-peer
     * from the reducer to the spare, never through the host.
     */
    void reconstructChunk(std::uint64_t stripe, std::uint32_t spare_target,
                          std::function<void(bool)> done);

    /** Outcome of an online stripe scrub. */
    struct ScrubResult
    {
        bool ok = false;         ///< reads succeeded
        bool consistent = false; ///< parity matched the data
        bool repaired = false;   ///< parity was rewritten
    };

    /**
     * Online consistency check of one stripe (md-style `check`/`repair`):
     * reads every data and parity chunk through the normal remote path,
     * recomputes the parity, and optionally rewrites it on mismatch.
     * Requires a healthy array (scrubbing is pointless while degraded).
     */
    void scrubStripe(std::uint64_t stripe, bool repair,
                     std::function<void(ScrubResult)> done);

    const raid::Geometry &geometry() const { return geom_; }
    const DraidOptions &options() const { return opts_; }
    const HostCounters &counters() const { return counters_; }
    raid::StripeLockTable &stripeLocks() { return stripeLocks_; }

    /** Non-null when reducerPolicy == kBwAware. */
    BwAwareReducerSelector *bwAwareSelector() { return bwAware_; }

  private:
    // ---- pending-operation bookkeeping ----
    struct PendingOp
    {
        // draid-lint: cap(sub-commands of one op; at most stripe width)
        std::set<std::uint8_t> waitingSubs;
        bool anyFailure = false;
        std::function<void(std::uint8_t, ec::Buffer)> onData;
        std::function<void(bool)> onDone;
    };

    std::uint64_t registerOp(std::set<std::uint8_t> subs,
                             std::function<void(std::uint8_t, ec::Buffer)>
                                 on_data,
                             std::function<void(bool)> on_done);
    void completeSub(std::uint64_t op, std::uint8_t sub, bool ok,
                     ec::Buffer payload);

    bool inFlight(std::uint64_t op) const override
    {
        return pending_.contains(op);
    }

    /** §5.4 expiry: journal OpTimeout, fail the op (its owner retries). */
    void expire(std::uint64_t op) override;

    // ---- write path ----
    struct StripeWrite
    {
        raid::StripeWritePlan plan;
        // draid-lint: cap(parallel to plan.writes; at most stripe width)
        std::vector<ec::Buffer> segData; ///< parallel to plan.writes
        int retriesLeft = 0;
        std::uint64_t traceId = 0; ///< telemetry id of the user write
        std::function<void(bool)> done;
    };

    /** Dispatch over the planner's (degraded) decision for @p sw. */
    void executeStripeWrite(std::shared_ptr<StripeWrite> sw);
    /** Run @p sw's plan as planned: full stripe, RMW or RCW. */
    void executePlanned(std::shared_ptr<StripeWrite> sw);
    void executeFullStripe(std::shared_ptr<StripeWrite> sw);
    void executePartialStripe(std::shared_ptr<StripeWrite> sw);
    void executeParityLessWrite(std::shared_ptr<StripeWrite> sw);

    /**
     * Degraded write touching the failed chunk itself: survivors forward
     * their slices of the written range to the parity bdev(s), the host
     * contributes the new data, and the parity window absorbs the lost
     * chunk's new content — no reconstruction round-trip, no device write
     * for the lost chunk (its bytes live in parity until rebuild).
     */
    void executeDegradedTargetedWrite(std::shared_ptr<StripeWrite> sw,
                                      const raid::WriteSegment &seg,
                                      ec::Buffer data);
    void retryStripe(std::shared_ptr<StripeWrite> sw);
    void failoverFrom(const std::set<std::uint8_t> &missing,
                      std::uint64_t stripe);

    // ---- read path ----
    /** Whether any of @p extents lives on the failed device. */
    bool holdsFailedChunk(
        const std::vector<raid::GroupExtent> &extents) const;
    /** Read one stripe's extents; shared stripe lock when degraded. */
    void readStripeGroup(std::uint64_t stripe,
                         std::vector<raid::GroupExtent> extents,
                         ec::Buffer out,
                         std::function<void(bool)> done,
                         std::uint64_t trace = 0);
    void degradedStripeRead(std::uint64_t stripe,
                            std::vector<raid::GroupExtent> extents,
                         ec::Buffer out,
                            std::function<void(bool)> done,
                            std::uint64_t trace = 0);

    /** Shared by degraded reads and rebuild: register + broadcast. */
    void registerAndBroadcastReconstruction(
        std::uint64_t stripe, const std::vector<std::uint32_t> &participants,
        std::uint32_t reducer, std::uint32_t recon_off,
        std::uint32_t recon_len, sim::NodeId spare_node,
        const std::vector<raid::GroupExtent> &extents, std::uint32_t fidx,
        std::function<void(std::uint8_t, ec::Buffer)> on_data,
        std::function<void(bool)> done,
        proto::Subtype base_subtype = proto::Subtype::kNoRead,
        std::uint64_t trace = 0);

    /**
     * Read one whole data chunk, transparently reconstructing it when it
     * lives on the failed device (used by full-stripe retry).
     */
    void readChunk(std::uint64_t stripe, std::uint32_t data_idx,
                   std::function<void(bool, ec::Buffer)> cb,
                   std::uint64_t trace = 0);

    // ---- helpers ----
    void sendCapsule(std::uint32_t device, proto::Capsule capsule,
                     ec::Buffer payload);
    std::uint32_t deviceOf(const raid::Extent &e) const;

    /** Fabric node serving member device @p device. */
    sim::NodeId
    nodeOf(std::uint32_t device) const
    {
        return cluster_.targetNodeId(targetMap_[device]);
    }

    /** Reconstruction participants for @p stripe (XOR path; excludes Q). */
    std::vector<std::uint32_t> reconParticipants(std::uint64_t stripe,
                                                 std::uint32_t failed) const;

    void refreshBwPlan();
    void armBwTimer();
    void noteReconstructionLoad(std::uint64_t bytes)
    {
        reconBytesWindow_ += bytes;
        armBwTimer();
    }

    cluster::Cluster &cluster_;
    DraidOptions opts_;
    std::uint32_t width_;
    raid::Geometry geom_;
    raid::WritePlanner planner_;
    blockdev::CommandIdAllocator ids_;
    blockdev::NvmfInitiator initiator_;
    raid::StripeLockTable stripeLocks_;
    sim::Rng rng_;

    std::optional<std::uint32_t> failed_;
    /** Member device index -> cluster target (identity until a swap). */
    // draid-lint: cap(member device count; fixed topology)
    std::vector<std::uint32_t> targetMap_;
    // draid-lint: cap(in-flight ops; host queue depth)
    std::unordered_map<std::uint64_t, PendingOp> pending_;

    /** Sub-commands still outstanding when the last deadline fired. */
    // draid-lint: cap(sub-commands of one op; stripe width)
    std::set<std::uint8_t> lastExpiredSubs_;

    std::unique_ptr<ReducerSelector> selector_;
    BwAwareReducerSelector *bwAware_ = nullptr;
    bool bwTimerArmed_ = false;
    std::uint64_t reconBytesWindow_ = 0;
    // draid-lint: cap(one entry per cluster target; fixed topology)
    std::vector<std::uint64_t> lastTxBytes_;
    // draid-lint: cap(one entry per cluster target; fixed topology)
    std::vector<std::uint64_t> reconTxAttributed_;

    HostCounters counters_;

    /** Register host0.draid.* probes + latency histograms. */
    void setupTelemetry();


    /**
     * Record the stripe-lock wait window [since, now) as a "lock" lane
     * span, so the critical-path analyzer can attribute serialization
     * behind another writer separately from queueing. No-op when the wait
     * was zero ticks (the uncontended fast path stays span-free).
     */
    void recordLockWait(std::uint64_t trace, std::uint64_t stripe,
                        sim::Ticks since);

    telemetry::Histogram *readLatencyUs_ = nullptr;
    telemetry::Histogram *writeLatencyUs_ = nullptr;

    /** Contention attribution (tenant dimension): the cluster tracker and
     *  this host's stripe-lock resource id (key = stripe). */
    telemetry::ContentionTracker *contention_ = nullptr;
    std::uint32_t lockRes_ = 0;
};

/**
 * Convenience assembly: the host controller plus a DraidBdev on every
 * target (members and spares alike).
 */
class DraidSystem
{
  public:
    DraidSystem(cluster::Cluster &cluster, const DraidOptions &options,
                std::uint32_t width = 0);
    ~DraidSystem(); // out-of-line: DraidBdev is incomplete here

    DraidHost &host() { return *host_; }
    class DraidBdev &bdev(std::uint32_t i) { return *bdevs_.at(i); }
    std::uint32_t numBdevs() const
    {
        return static_cast<std::uint32_t>(bdevs_.size());
    }

  private:
    // draid-lint: cap(one bdev per member device; fixed topology)
    std::vector<std::unique_ptr<class DraidBdev>> bdevs_;
    std::unique_ptr<DraidHost> host_;
};

} // namespace draid::core

#endif // DRAID_CORE_DRAID_HOST_H
