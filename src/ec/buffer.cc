#include "ec/buffer.h"

#include <cassert>
#include <cstring>

namespace draid::ec {

Buffer::Buffer(std::size_t size)
    : block_(new std::uint8_t[size](), std::default_delete<std::uint8_t[]>()),
      size_(size)
{
}

Buffer::Buffer(const std::uint8_t *src, std::size_t size)
    : Buffer(uninitialized(size))
{
    if (size)
        std::memcpy(data(), src, size);
}

Buffer
Buffer::uninitialized(std::size_t size)
{
    Buffer b;
    b.block_ = std::shared_ptr<std::uint8_t[]>(
        new std::uint8_t[size], std::default_delete<std::uint8_t[]>());
    b.size_ = size;
    if constexpr (kPoisons)
        b.fill(kPoison);
    return b;
}

Buffer
Buffer::clone() const
{
    if (empty())
        return Buffer();
    return Buffer(data(), size_);
}

Buffer
Buffer::slice(std::size_t offset, std::size_t len) const
{
    assert(offset <= size_ && len <= size_ - offset);
    Buffer view = *this;
    view.offset_ += offset;
    view.size_ = len;
    return view;
}

bool
Buffer::contentEquals(const Buffer &other) const
{
    if (size_ != other.size_)
        return false;
    if (size_ == 0)
        return true;
    return std::memcmp(data(), other.data(), size_) == 0;
}

void
Buffer::fill(std::uint8_t value)
{
    if (size_)
        std::memset(data(), value, size_);
}

void
Buffer::fillPattern(std::uint64_t seed)
{
    // Cheap splitmix-style stream; good enough to make collisions
    // vanishingly unlikely in integrity tests.
    std::uint8_t *out = data();
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < size_; ++i) {
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        out[i] = static_cast<std::uint8_t>(z ^ (z >> 31));
    }
}

} // namespace draid::ec
