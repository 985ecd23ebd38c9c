/**
 * @file
 * Host-side NVMe-oF initiator: issues standard Read/Write commands to
 * remote targets and matches their completions, with per-operation
 * deadlines (§5.4 explicit timeouts).
 *
 * The initiator is not a fabric endpoint itself — the host controller
 * that owns it receives all host-bound messages and offers completions via
 * tryComplete(), so one host node can host a RAID controller and an
 * initiator side by side.
 */

#ifndef DRAID_BLOCKDEV_NVMF_INITIATOR_H
#define DRAID_BLOCKDEV_NVMF_INITIATOR_H

#include <cstdint>
#include <unordered_map>

#include "blockdev/block_device.h"
#include "cluster/cluster.h"
#include "net/fabric.h"

namespace draid::blockdev {

/**
 * Allocates operation identifiers unique across one host's components.
 * Wire command ids are composed as (operation id << 8 | sub-index); the
 * initiator reserves sub-index 0xff, dRAID sub-commands use the rest.
 */
struct CommandIdAllocator
{
    std::uint64_t next = 1;

    std::uint64_t alloc() { return next++; }
};

/**
 * Host-side initiator multiplexing all remote targets. Every command arms
 * the cluster's deadline queue; one still pending at its deadline
 * completes with IoStatus::kTimedOut.
 */
class NvmfInitiator : private sim::DeadlineClient
{
  public:
    NvmfInitiator(cluster::Cluster &cluster, CommandIdAllocator &ids);

    /**
     * Read [offset, offset+length) of remote target @p target. @p trace
     * tags the command capsule (and so every downstream span) with a
     * telemetry trace id; 0 = untraced.
     */
    void readRemote(std::uint32_t target, std::uint64_t offset,
                    std::uint32_t length, ReadCallback cb,
                    std::uint64_t trace = 0);

    /** Write to remote target @p target. */
    void writeRemote(std::uint32_t target, std::uint64_t offset,
                     ec::Buffer data, WriteCallback cb,
                     std::uint64_t trace = 0);

    /**
     * Offer a host-bound message. Returns true if it completed one of this
     * initiator's pending commands (including late completions of already
     * timed-out commands, which are swallowed).
     */
    bool tryComplete(const net::Message &msg);

    /** Pending commands (tests). */
    std::size_t pendingOps() const { return pending_.size(); }

    std::uint64_t timeoutsFired() const { return timeouts_; }

  private:
    struct Pending
    {
        bool isRead;
        ReadCallback readCb;
        WriteCallback writeCb;
    };

    void arm(std::uint64_t id, Pending p);

    bool inFlight(std::uint64_t id) const override
    {
        return pending_.contains(id);
    }
    void expire(std::uint64_t id) override;

    cluster::Cluster &cluster_;
    CommandIdAllocator &ids_;
    // draid-lint: cap(in-flight commands; bounded by the host queue depth)
    std::unordered_map<std::uint64_t, Pending> pending_;
    std::uint64_t timeouts_ = 0;
};

} // namespace draid::blockdev

#endif // DRAID_BLOCKDEV_NVMF_INITIATOR_H
