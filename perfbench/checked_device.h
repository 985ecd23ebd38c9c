/**
 * @file
 * CheckedDevice: an observe-only BlockDevice wrapper that keeps a shadow
 * of what every 4 KB block should hold and checks each completed read
 * against it.
 *
 * Every writer in the benchmark (the preload and workload::FioJob) fills
 * a block with one repeated byte, so the shadow stores one expected byte
 * per block. A block whose content is not known exactly is never checked:
 * a write that was not a uniform fill, a write that failed, or two writes
 * to the block that overlapped in time (their apply order is not
 * observable from outside). A read skips every block that had a write in
 * flight at any point between the read's issue and its completion.
 *
 * The wrapper also cuts the completion stream into windows of equal op
 * count and stamps each boundary with the host clock, and times the
 * calls into the wrapped device (submit time) and its own checking.
 */

#ifndef DRAID_PERFBENCH_CHECKED_DEVICE_H
#define DRAID_PERFBENCH_CHECKED_DEVICE_H

#include <cstdint>
#include <vector>

#include "blockdev/block_device.h"

namespace draid::perfbench {

/** Monotonic host clock in ns. */
std::uint64_t hostNowNs();

class CheckedDevice final : public blockdev::BlockDevice
{
  public:
    static constexpr std::uint32_t kBlock = 4096;

    /** Shadow covers [0, @p tracked_bytes); blocks beyond are unchecked. */
    CheckedDevice(blockdev::BlockDevice &inner, std::uint64_t tracked_bytes);

    std::uint64_t sizeBytes() const override { return inner_.sizeBytes(); }
    void read(std::uint64_t offset, std::uint32_t length,
              blockdev::ReadCallback cb) override;
    void write(std::uint64_t offset, ec::Buffer data,
               blockdev::WriteCallback cb) override;

    /** Stamp the host clock now and after every @p ops_per_window
     *  completions from here on. */
    void startWindows(std::uint64_t ops_per_window);
    /** Host ns of each complete window, in order. */
    std::vector<std::uint64_t> windowNs() const;

    /** Ops completed with a non-ok status or with a wrong block. */
    std::uint64_t failedOps() const { return failedOps_; }
    std::uint64_t completedOps() const { return completedOps_; }
    std::uint64_t checkedBlocks() const { return checkedBlocks_; }
    std::uint64_t badBlocks() const { return badBlocks_; }
    std::uint64_t skippedBlocks() const { return skippedBlocks_; }
    /** Host ns spent inside the wrapped device's read()/write(). */
    std::uint64_t submitNs() const { return submitNs_; }
    /** Host ns spent in the wrapper's own shadow and check work. */
    std::uint64_t checkNs() const { return checkNs_; }

  private:
    static constexpr std::int16_t kUnknown = -1;

    /** Tracked block range [first, end) covered by [offset, offset+len). */
    void blockRange(std::uint64_t offset, std::uint64_t len,
                    std::uint64_t &first, std::uint64_t &end) const;
    void onComplete(bool failed);

    blockdev::BlockDevice &inner_;
    /** Expected fill byte per block, or kUnknown. */
    std::vector<std::int16_t> shadow_;
    /** Writes issued to the block and not yet completed. */
    std::vector<std::uint16_t> inflight_;
    /** touchSeq_ after the last write issue or completion on the block. */
    std::vector<std::uint64_t> lastTouch_;
    /** Counts every write issue and write completion. */
    std::uint64_t touchSeq_ = 0;

    std::uint64_t completedOps_ = 0;
    std::uint64_t failedOps_ = 0;
    std::uint64_t checkedBlocks_ = 0;
    std::uint64_t badBlocks_ = 0;
    std::uint64_t skippedBlocks_ = 0;
    std::uint64_t submitNs_ = 0;
    std::uint64_t checkNs_ = 0;

    std::uint64_t opsPerWindow_ = 0;
    std::uint64_t windowOps_ = 0;
    std::vector<std::uint64_t> windowStamps_;
};

} // namespace draid::perfbench

#endif // DRAID_PERFBENCH_CHECKED_DEVICE_H
