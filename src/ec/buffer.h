/**
 * @file
 * Reference-counted byte buffers used throughout the data plane.
 *
 * Buffers are cheap to copy (shared ownership) so a payload can be handed
 * through the simulated network, reduced at a peer, and verified at the
 * host without deep copies — mirroring the zero-copy RDMA data path of the
 * real system. A slice is a view into the same block, not a copy.
 *
 * Aliasing contract: copies and slices share bytes, so a write through
 * one is visible through every other handle on the same block. Code that
 * writes into a buffer must own it: allocate it (or clone() it) itself,
 * and only hand it on once it is done writing. Buffers received from a
 * caller, a drive or the network are read-only to the receiver. A drive
 * (blockdev::MemoryBdev) stores the buffer handed to write() as it is and
 * returns views of it from later reads, so a buffer once written must
 * never be written again, by the writer or by any reader.
 */

#ifndef DRAID_EC_BUFFER_H
#define DRAID_EC_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <memory>

namespace draid::ec {

/** A shared, fixed-size byte buffer, or a view into one. */
class Buffer
{
  public:
    /** An empty (null) buffer. */
    Buffer() = default;

    /** Allocate a zero-initialized buffer of @p size bytes. */
    explicit Buffer(std::size_t size);

    /** Allocate and fill from @p src (copies @p size bytes). */
    Buffer(const std::uint8_t *src, std::size_t size);

    /**
     * Allocate @p size bytes without zeroing them, for a caller that
     * writes every byte before reading any. Builds with assertions or
     * AddressSanitizer (kPoisons) fill the bytes with kPoison instead, so
     * a read of an unwritten byte shows up as a wrong value, not a zero.
     */
    static Buffer uninitialized(std::size_t size);

    static constexpr std::uint8_t kPoison = 0xA5;
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__)
    static constexpr bool kPoisons = true;
#else
    static constexpr bool kPoisons = false;
#endif

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Size of the whole block this buffer (or view) keeps alive. */
    std::size_t blockSize() const { return blockSize_; }

    std::uint8_t *data() { return block_.get() + offset_; }
    const std::uint8_t *data() const { return block_.get() + offset_; }

    std::uint8_t &operator[](std::size_t i) { return data()[i]; }
    std::uint8_t operator[](std::size_t i) const { return data()[i]; }

    /** Deep copy of this buffer's bytes into a new block of size(). */
    Buffer clone() const;

    /**
     * A view of bytes [offset, offset+len) that shares this buffer's
     * block and keeps it alive. @pre offset+len <= size()
     */
    Buffer slice(std::size_t offset, std::size_t len) const;

    /** Byte-wise equality (both empty counts as equal). */
    bool contentEquals(const Buffer &other) const;

    /** Fill the whole buffer with @p value. */
    void fill(std::uint8_t value);

    /** Fill with a deterministic pattern derived from @p seed (testing). */
    void fillPattern(std::uint64_t seed);

  private:
    std::shared_ptr<std::uint8_t[]> block_;
    std::size_t offset_ = 0; ///< start of this view within block_
    std::size_t size_ = 0;
    std::size_t blockSize_ = 0;
};

} // namespace draid::ec

#endif // DRAID_EC_BUFFER_H
