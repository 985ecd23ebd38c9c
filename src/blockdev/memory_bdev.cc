#include "blockdev/memory_bdev.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace draid::blockdev {

namespace {

/** 64-bit checksum of @p b's bytes: a word-wise multiply-xor mix. */
std::uint64_t
checksum(const ec::Buffer &b)
{
    const std::uint8_t *p = b.data();
    const std::size_t n = b.size();
    std::uint64_t h = n ^ 0x9e3779b97f4a7c15ull;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 29;
    }
    for (; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

/** The first extent of @p extents that ends past @p offset. */
template <typename Map>
auto
firstEndingAfter(Map &extents, std::uint64_t offset)
{
    auto it = extents.upper_bound(offset);
    if (it != extents.begin()) {
        const auto prev = std::prev(it);
        if (prev->first + prev->second.data.size() > offset)
            return prev;
    }
    return it;
}

} // namespace

MemoryBdev::MemoryBdev(std::uint64_t capacity) : capacity_(capacity) {}

void
MemoryBdev::read(std::uint64_t offset, std::uint32_t length, ReadCallback cb)
{
    cb(IoStatus::kOk, readSync(offset, length));
}

void
MemoryBdev::write(std::uint64_t offset, ec::Buffer data, WriteCallback cb)
{
    writeSync(offset, std::move(data));
    cb(IoStatus::kOk);
}

MemoryBdev::Extent
MemoryBdev::keep(ec::Buffer data)
{
    if (data.size() * 2 < data.blockSize())
        data = data.clone();
    Extent e;
    e.data = std::move(data);
    if constexpr (ec::Buffer::kPoisons)
        e.sum = checksum(e.data);
    return e;
}

void
MemoryBdev::verify(std::uint64_t offset, const Extent &e)
{
    if constexpr (ec::Buffer::kPoisons) {
        if (checksum(e.data) != e.sum) {
            std::fprintf(stderr,
                         "MemoryBdev: extent at offset %" PRIu64
                         " (%zu bytes) was modified after it was written\n",
                         offset, e.data.size());
            std::abort();
        }
    }
}

ec::Buffer
MemoryBdev::readSync(std::uint64_t offset, std::uint32_t length) const
{
    assert(offset + length <= capacity_);
    const std::uint64_t end = offset + length;
    auto it = firstEndingAfter(extents_, offset);
    if (it != extents_.end() && it->first <= offset &&
        it->first + it->second.data.size() >= end) {
        verify(it->first, it->second);
        return it->second.data.slice(offset - it->first, length);
    }

    ec::Buffer out = ec::Buffer::uninitialized(length);
    std::uint64_t pos = offset;
    for (; it != extents_.end() && it->first < end; ++it) {
        verify(it->first, it->second);
        const ec::Buffer &data = it->second.data;
        const std::uint64_t from = std::max(it->first, offset);
        const std::uint64_t to = std::min(it->first + data.size(), end);
        std::memset(out.data() + (pos - offset), 0, from - pos); // fresh
        std::memcpy(out.data() + (from - offset),
                    data.data() + (from - it->first), to - from);
        pos = to;
    }
    std::memset(out.data() + (pos - offset), 0, end - pos);
    return out;
}

void
MemoryBdev::writeSync(std::uint64_t offset, ec::Buffer data)
{
    assert(offset + data.size() <= capacity_);
    if (data.empty())
        return;
    const std::uint64_t end = offset + data.size();
    auto it = firstEndingAfter(extents_, offset);
    // Trim every overlapped extent to the parts outside [offset, end).
    while (it != extents_.end() && it->first < end) {
        verify(it->first, it->second);
        const std::uint64_t start = it->first;
        const ec::Buffer old = it->second.data;
        const std::uint64_t old_end = start + old.size();
        if (start < offset) {
            it->second = keep(old.slice(0, offset - start));
            ++it;
        } else {
            it = extents_.erase(it);
        }
        if (old_end > end) {
            it = extents_.emplace_hint(
                it, end, keep(old.slice(end - start, old_end - end)));
            break;
        }
    }
    extents_.emplace_hint(it, offset, keep(std::move(data)));
}

} // namespace draid::blockdev
