/**
 * @file
 * In-memory backing store: a zero-copy extent map.
 *
 * Holds the *actual bytes* of every simulated drive so RAID semantics are
 * verifiable bit-for-bit. Untouched ranges read as zeros, like a fresh
 * drive. Completion is immediate (timing belongs to nvme::Ssd, which wraps
 * this store).
 *
 * A write keeps the caller's ec::Buffer as it is, with no copy; an
 * overlapping write trims older extents into views. A read that one
 * extent covers returns a view of it; any other read assembles a new
 * buffer (covered parts copied, gaps zeroed). This makes the ec::Buffer
 * aliasing contract load-bearing: a buffer handed to write() and every
 * buffer a read returns must never be written again. Builds with
 * ec::Buffer::kPoisons checksum each extent when it is stored and verify
 * it whenever the extent is read, trimmed or replaced; a mismatch aborts
 * and names the extent's offset.
 */

#ifndef DRAID_BLOCKDEV_MEMORY_BDEV_H
#define DRAID_BLOCKDEV_MEMORY_BDEV_H

#include <cstdint>
#include <map>

#include "blockdev/block_device.h"
#include "ec/buffer.h"

namespace draid::blockdev {

/** Sparse in-memory block store. */
class MemoryBdev : public BlockDevice
{
  public:
    explicit MemoryBdev(std::uint64_t capacity);

    std::uint64_t sizeBytes() const override { return capacity_; }

    void read(std::uint64_t offset, std::uint32_t length,
              ReadCallback cb) override;

    void write(std::uint64_t offset, ec::Buffer data,
               WriteCallback cb) override;

    /** Synchronous accessors used by tests and the timing wrapper. */
    ec::Buffer readSync(std::uint64_t offset, std::uint32_t length) const;
    void writeSync(std::uint64_t offset, ec::Buffer data);

    /** Number of disjoint extents stored. */
    std::size_t extentCount() const { return extents_.size(); }

  private:
    /** Stored bytes; @c sum is checked only in kPoisons builds. */
    struct Extent
    {
        ec::Buffer data;
        std::uint64_t sum = 0;
    };

    /**
     * Wrap @p data as an extent. A view pins its whole block, so one that
     * holds less than half of it is stored as a copy.
     */
    static Extent keep(ec::Buffer data);

    /** Abort if the extent at @p offset changed since it was stored. */
    static void verify(std::uint64_t offset, const Extent &e);

    std::uint64_t capacity_;
    // draid-lint: cap(capacity_ bytes; disjoint, one per written range)
    std::map<std::uint64_t, Extent> extents_;
};

} // namespace draid::blockdev

#endif // DRAID_BLOCKDEV_MEMORY_BDEV_H
