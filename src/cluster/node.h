/**
 * @file
 * A cluster node: one NIC, one poll-mode CPU core, and (on storage
 * servers) one NVMe SSD. The paper strictly limits dRAID to one core per
 * SSD on the server side (§7); the host likewise runs the controller on a
 * single SPDK reactor core.
 */

#ifndef DRAID_CLUSTER_NODE_H
#define DRAID_CLUSTER_NODE_H

#include <memory>
#include <optional>

#include "net/nic.h"
#include "nvme/ssd.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/types.h"
#include "telemetry/lane_tap.h"

namespace draid::cluster {

/** One machine in the testbed. */
class Node
{
  public:
    /**
     * @param sim   owning simulator
     * @param id    fabric address
     * @param nic_goodput  per-direction NIC bandwidth, bytes/s
     * @param nic_per_msg  per-message NIC occupancy
     * @param ssd   drive profile; nullopt for the (diskless) host
     */
    Node(sim::Simulator &sim, sim::NodeId id, double nic_goodput,
         sim::Ticks nic_per_msg, std::optional<nvme::SsdConfig> ssd);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    sim::NodeId id() const { return id_; }
    net::Nic &nic() { return nic_; }
    sim::CpuCore &cpu() { return cpu_; }

    /**
     * Observe-only telemetry taps for the node's FIFO resources; the
     * Cluster binds tracer/contention into them and attaches them to the
     * NIC pipes, CPU core and SSD (see sim/service.h for the seam
     * contract).
     */
    telemetry::LaneTap &txTap() { return txTap_; }
    telemetry::LaneTap &rxTap() { return rxTap_; }
    telemetry::LaneTap &cpuTap() { return cpuTap_; }
    telemetry::LaneTap &ssdTap() { return ssdTap_; }

    /** The node's drive. @pre hasSsd() */
    nvme::Ssd &ssd() { return *ssd_; }
    bool hasSsd() const { return ssd_ != nullptr; }

  private:
    sim::NodeId id_;
    net::Nic nic_;
    sim::CpuCore cpu_;
    telemetry::LaneTap txTap_{telemetry::LaneTap::Style::kPipe};
    telemetry::LaneTap rxTap_{telemetry::LaneTap::Style::kPipe};
    telemetry::LaneTap cpuTap_{telemetry::LaneTap::Style::kCpu};
    telemetry::LaneTap ssdTap_{telemetry::LaneTap::Style::kSsd};
    std::unique_ptr<nvme::Ssd> ssd_;
};

} // namespace draid::cluster

#endif // DRAID_CLUSTER_NODE_H
