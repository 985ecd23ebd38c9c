#include "ec/xor_kernel.h"

#include <cassert>
#include <cstring>

namespace draid::ec {

void
xorInto(std::uint8_t *dst, const std::uint8_t *src, std::size_t len)
{
    std::size_t i = 0;
    // Word-wise with 4x unrolling; memcpy keeps this free of alignment UB
    // and compiles to plain loads/stores.
    for (; i + 32 <= len; i += 32) {
        std::uint64_t d[4], s[4];
        std::memcpy(d, dst + i, 32);
        std::memcpy(s, src + i, 32);
        d[0] ^= s[0];
        d[1] ^= s[1];
        d[2] ^= s[2];
        d[3] ^= s[3];
        std::memcpy(dst + i, d, 32);
    }
    for (; i < len; ++i)
        dst[i] ^= src[i];
}

void
xorBlocks(std::uint8_t *dst, const std::uint8_t *a, const std::uint8_t *b,
          std::size_t len)
{
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        std::uint64_t x[4], y[4];
        std::memcpy(x, a + i, 32);
        std::memcpy(y, b + i, 32);
        x[0] ^= y[0];
        x[1] ^= y[1];
        x[2] ^= y[2];
        x[3] ^= y[3];
        std::memcpy(dst + i, x, 32);
    }
    for (; i < len; ++i)
        dst[i] = a[i] ^ b[i];
}

void
xorInto(Buffer &dst, const Buffer &src)
{
    assert(dst.size() == src.size());
    xorInto(dst.data(), src.data(), dst.size());
}

Buffer
xorOf(const Buffer &a, const Buffer &b)
{
    assert(a.size() == b.size());
    Buffer out = Buffer::uninitialized(a.size());
    xorBlocks(out.data(), a.data(), b.data(), a.size());
    return out;
}

} // namespace draid::ec
