#include "core/reduce_engine.h"

#include <algorithm>
#include <cstring>

#include "ec/xor_kernel.h"

namespace draid::core {

ReduceSession &
ReduceEngine::obtain(std::uint64_t key)
{
    auto [it, created] = sessions_.try_emplace(key);
    if (created)
        ++stats_.sessionsCreated;
    return it->second;
}

ReduceSession *
ReduceEngine::find(std::uint64_t key)
{
    auto it = sessions_.find(key);
    return it == sessions_.end() ? nullptr : &it->second;
}

void
ReduceEngine::erase(std::uint64_t key)
{
    auto it = sessions_.find(key);
    if (it == sessions_.end())
        return;
    stats_.partialsAbsorbed += it->second.absorbed;
    stats_.bytesAbsorbed += it->second.bytesAbsorbed;
    sessions_.erase(it);
}

namespace {

/**
 * Widen a non-empty accumulator to cover in-chunk [lo, end). Its bytes
 * stay in place; the new parts on either side are zero.
 */
void
widen(ReduceSession &s, std::uint32_t lo, std::uint32_t end)
{
    lo = std::min(lo, s.accLo);
    end = std::max(end, s.accEnd);
    if (lo == s.accLo && end == s.accEnd)
        return;
    auto grown = ec::Buffer::uninitialized(end - lo);
    const std::uint32_t head = s.accLo - lo;
    std::memset(grown.data(), 0, head);
    std::memcpy(grown.data() + head, s.acc.data(), s.acc.size());
    std::memset(grown.data() + head + s.acc.size(), 0, end - s.accEnd);
    s.acc = std::move(grown);
    s.accLo = lo;
    s.accEnd = end;
}

} // namespace

void
ReduceEngine::absorb(ReduceSession &s, std::uint32_t offset,
                     const ec::Buffer &data)
{
    absorbNoCount(s, offset, data);
    --s.remaining;
}

void
ReduceEngine::absorbNoCount(ReduceSession &s, std::uint32_t offset,
                            const ec::Buffer &data)
{
    ++s.absorbed;
    s.bytesAbsorbed += data.size();
    if (data.empty())
        return;
    const auto end = offset + static_cast<std::uint32_t>(data.size());
    if (s.acc.empty()) {
        // First contribution: copy it in rather than zero-fill and XOR.
        s.acc = data.clone();
        s.accLo = offset;
        s.accEnd = end;
        return;
    }
    widen(s, offset, end);
    ec::xorInto(s.acc.data() + (offset - s.accLo), data.data(), data.size());
}

bool
ReduceEngine::readyToFinish(const ReduceSession &s)
{
    return s.hostCmdSeen && s.remaining == 0 && !s.preloadPending;
}

ec::Buffer
ReduceEngine::finalWindow(const ReduceSession &s)
{
    const std::uint32_t lo = s.baseOffset;
    const std::uint32_t end = s.baseOffset + s.length;
    if (!s.acc.empty() && lo >= s.accLo && end <= s.accEnd)
        return s.acc.slice(lo - s.accLo, s.length);
    // The window reaches past what was absorbed: copy the overlap into a
    // zeroed window.
    ec::Buffer out(s.length);
    const std::uint32_t from = std::max(lo, s.accLo);
    const std::uint32_t to = std::min(end, s.accEnd);
    if (!s.acc.empty() && from < to)
        std::memcpy(out.data() + (from - lo), s.acc.data() + (from - s.accLo),
                    to - from);
    return out;
}

} // namespace draid::core
