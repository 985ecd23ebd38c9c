#include "checked_device.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace draid::perfbench {

namespace {

/** Whether the 4 KB block at @p p is @p value repeated. */
bool
isFill(const std::uint8_t *p, std::uint8_t value)
{
    return p[0] == value &&
           std::memcmp(p, p + 1, CheckedDevice::kBlock - 1) == 0;
}

} // namespace

std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

CheckedDevice::CheckedDevice(blockdev::BlockDevice &inner,
                             std::uint64_t tracked_bytes)
    : inner_(inner), shadow_(tracked_bytes / kBlock, kUnknown),
      inflight_(shadow_.size(), 0), lastTouch_(shadow_.size(), 0)
{
}

void
CheckedDevice::blockRange(std::uint64_t offset, std::uint64_t len,
                          std::uint64_t &first, std::uint64_t &end) const
{
    // Both writers issue block-aligned I/O; anything else would need
    // partial-block shadows, so it is refused loudly.
    if (offset % kBlock != 0 || len % kBlock != 0) {
        std::fprintf(stderr,
                     "perfbench: unaligned I/O offset=%llu len=%llu\n",
                     static_cast<unsigned long long>(offset),
                     static_cast<unsigned long long>(len));
        std::abort();
    }
    const std::uint64_t n = shadow_.size();
    first = std::min<std::uint64_t>(offset / kBlock, n);
    end = std::min<std::uint64_t>((offset + len) / kBlock, n);
}

void
CheckedDevice::read(std::uint64_t offset, std::uint32_t length,
                    blockdev::ReadCallback cb)
{
    const std::uint64_t issuedAt = touchSeq_;
    std::uint64_t first = 0, end = 0;
    blockRange(offset, length, first, end);
    auto done = [this, offset, length, issuedAt, first, end,
                 cb = std::move(cb)](blockdev::IoStatus st,
                                     ec::Buffer buf) mutable {
        const std::uint64_t c0 = hostNowNs();
        bool bad = st != blockdev::IoStatus::kOk || buf.size() < length;
        if (!bad) {
            for (std::uint64_t b = first; b < end; ++b) {
                // A write issued or completed on the block since this read
                // was issued, or still in flight, makes either old or new
                // bytes a correct answer.
                if (inflight_[b] != 0 || lastTouch_[b] > issuedAt ||
                    shadow_[b] == kUnknown) {
                    ++skippedBlocks_;
                    continue;
                }
                ++checkedBlocks_;
                if (!isFill(buf.data() + (b * kBlock - offset),
                            static_cast<std::uint8_t>(shadow_[b]))) {
                    ++badBlocks_;
                    bad = true;
                }
            }
        }
        checkNs_ += hostNowNs() - c0;
        onComplete(bad);
        cb(st, std::move(buf));
    };
    const std::uint64_t t0 = hostNowNs();
    inner_.read(offset, length, std::move(done));
    submitNs_ += hostNowNs() - t0;
}

void
CheckedDevice::write(std::uint64_t offset, ec::Buffer data,
                     blockdev::WriteCallback cb)
{
    const std::uint64_t c0 = hostNowNs();
    const std::uint64_t seq = ++touchSeq_;
    std::uint64_t first = 0, end = 0;
    blockRange(offset, data.size(), first, end);
    // Expected byte per block once this write is acked; a block another
    // in-flight write also covers has no knowable final content.
    std::vector<std::int16_t> fill(end - first, kUnknown);
    for (std::uint64_t b = first; b < end; ++b) {
        const std::uint8_t *p = data.data() + (b * kBlock - offset);
        if (inflight_[b] == 0 && isFill(p, p[0]))
            fill[b - first] = p[0];
        ++inflight_[b];
        lastTouch_[b] = seq;
    }
    auto done = [this, first, seq, fill = std::move(fill),
                 cb = std::move(cb)](blockdev::IoStatus st) {
        const std::uint64_t t = hostNowNs();
        const bool ok = st == blockdev::IoStatus::kOk;
        const std::uint64_t doneSeq = ++touchSeq_;
        for (std::size_t i = 0; i < fill.size(); ++i) {
            const std::uint64_t b = first + i;
            --inflight_[b];
            // Known only if no other write touched the block meanwhile.
            shadow_[b] = ok && lastTouch_[b] == seq ? fill[i] : kUnknown;
            lastTouch_[b] = doneSeq;
        }
        checkNs_ += hostNowNs() - t;
        onComplete(!ok);
        cb(st);
    };
    checkNs_ += hostNowNs() - c0;
    const std::uint64_t t0 = hostNowNs();
    inner_.write(offset, std::move(data), std::move(done));
    submitNs_ += hostNowNs() - t0;
}

void
CheckedDevice::onComplete(bool failed)
{
    ++completedOps_;
    if (failed)
        ++failedOps_;
    if (opsPerWindow_ != 0 && ++windowOps_ == opsPerWindow_) {
        windowOps_ = 0;
        windowStamps_.push_back(hostNowNs());
    }
}

void
CheckedDevice::startWindows(std::uint64_t ops_per_window)
{
    opsPerWindow_ = ops_per_window;
    windowOps_ = 0;
    windowStamps_.assign(1, hostNowNs());
}

std::vector<std::uint64_t>
CheckedDevice::windowNs() const
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 1; i < windowStamps_.size(); ++i)
        out.push_back(windowStamps_[i] - windowStamps_[i - 1]);
    return out;
}

} // namespace draid::perfbench
