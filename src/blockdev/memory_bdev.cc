#include "blockdev/memory_bdev.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace draid::blockdev {

MemoryBdev::MemoryBdev(std::uint64_t capacity) : capacity_(capacity) {}

void
MemoryBdev::read(std::uint64_t offset, std::uint32_t length, ReadCallback cb)
{
    cb(IoStatus::kOk, readSync(offset, length));
}

void
MemoryBdev::write(std::uint64_t offset, ec::Buffer data, WriteCallback cb)
{
    writeSync(offset, data);
    cb(IoStatus::kOk);
}

ec::Buffer
MemoryBdev::readSync(std::uint64_t offset, std::uint32_t length) const
{
    assert(offset + length <= capacity_);
    ec::Buffer out = ec::Buffer::uninitialized(length);
    std::uint64_t pos = offset;
    std::uint32_t copied = 0;
    while (copied < length) {
        const std::uint64_t page = pos / kPageSize;
        const std::uint32_t in_page = static_cast<std::uint32_t>(
            pos % kPageSize);
        const std::uint32_t take =
            std::min(length - copied, kPageSize - in_page);
        auto it = pages_.find(page);
        if (it != pages_.end())
            std::memcpy(out.data() + copied, it->second.data() + in_page,
                        take);
        else
            std::memset(out.data() + copied, 0, take); // fresh drive
        pos += take;
        copied += take;
    }
    return out;
}

void
MemoryBdev::writeSync(std::uint64_t offset, const ec::Buffer &data)
{
    assert(offset + data.size() <= capacity_);
    std::uint64_t pos = offset;
    std::size_t copied = 0;
    while (copied < data.size()) {
        const std::uint64_t page = pos / kPageSize;
        const std::uint32_t in_page = static_cast<std::uint32_t>(
            pos % kPageSize);
        const std::uint32_t take = std::min<std::uint32_t>(
            static_cast<std::uint32_t>(data.size() - copied),
            kPageSize - in_page);
        auto &storage = pages_[page];
        if (storage.empty())
            storage.assign(kPageSize, 0);
        std::memcpy(storage.data() + in_page, data.data() + copied, take);
        pos += take;
        copied += take;
    }
}

} // namespace draid::blockdev
