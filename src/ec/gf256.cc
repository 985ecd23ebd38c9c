#include "ec/gf256.h"

#include <cassert>
#include <cstring>

#include "ec/xor_kernel.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DRAID_GF_X86 1
#endif

namespace draid::ec {

namespace {

// Portable body; also the tail loop of the SIMD bodies.
template <bool kAccum>
void
nibbleScalar(const std::uint8_t *t, const std::uint8_t *src, std::uint8_t *dst,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        const std::uint8_t s = src[i];
        const std::uint8_t p = t[s & 0x0f] ^ t[16 + (s >> 4)];
        dst[i] = kAccum ? static_cast<std::uint8_t>(dst[i] ^ p) : p;
    }
}

#ifdef DRAID_GF_X86

// Each step loads src before storing dst, so src == dst is safe.
template <bool kAccum>
__attribute__((target("avx2"))) void
nibbleAvx2(const std::uint8_t *t, const std::uint8_t *src, std::uint8_t *dst,
           std::size_t len)
{
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(t)));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(t + 16)));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        const __m256i s =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src + i));
        const __m256i sl = _mm256_and_si256(s, mask);
        const __m256i sh = _mm256_and_si256(_mm256_srli_epi64(s, 4), mask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, sl),
                                     _mm256_shuffle_epi8(hi, sh));
        auto *d = reinterpret_cast<__m256i *>(dst + i);
        if constexpr (kAccum)
            p = _mm256_xor_si256(p, _mm256_loadu_si256(d));
        _mm256_storeu_si256(d, p);
    }
    nibbleScalar<kAccum>(t, src + i, dst + i, len - i);
}

template <bool kAccum>
__attribute__((target("ssse3"))) void
nibbleSsse3(const std::uint8_t *t, const std::uint8_t *src, std::uint8_t *dst,
            std::size_t len)
{
    const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i *>(t));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(t + 16));
    const __m128i mask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= len; i += 16) {
        const __m128i s =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(src + i));
        const __m128i sl = _mm_and_si128(s, mask);
        const __m128i sh = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
        __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo, sl),
                                  _mm_shuffle_epi8(hi, sh));
        auto *d = reinterpret_cast<__m128i *>(dst + i);
        if constexpr (kAccum)
            p = _mm_xor_si128(p, _mm_loadu_si128(d));
        _mm_storeu_si128(d, p);
    }
    nibbleScalar<kAccum>(t, src + i, dst + i, len - i);
}

#endif // DRAID_GF_X86

} // namespace

namespace detail {

// Kept off the heap: Gf256 is built lazily in the middle of a run, and even
// one small malloc/free there was measured to shift glibc's heap trimming
// and slow the later large-buffer allocations of RAID-5 runs.
std::span<const GfKernel>
supportedGfKernels()
{
    struct List
    {
        GfKernel k[3];
        std::size_t n;
    };
    static const List list = [] {
        List l{};
#ifdef DRAID_GF_X86
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            l.k[l.n++] = {"avx2", nibbleAvx2<true>, nibbleAvx2<false>};
        if (__builtin_cpu_supports("ssse3"))
            l.k[l.n++] = {"ssse3", nibbleSsse3<true>, nibbleSsse3<false>};
#endif
        l.k[l.n++] = {"scalar", nibbleScalar<true>, nibbleScalar<false>};
        return l;
    }();
    return {list.k, list.n};
}

} // namespace detail

const Gf256 &
Gf256::instance()
{
    static const Gf256 field;
    return field;
}

Gf256::Gf256() : kernel_(detail::supportedGfKernels().front())
{
    // Generator g = 2, polynomial 0x11d.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
        exp_[i] = static_cast<std::uint8_t>(x);
        log_[x] = static_cast<std::uint8_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i)
        exp_[i] = exp_[i - 255];
    log_[0] = 0; // Unused; mul() guards zero operands.

    for (unsigned c = 0; c < 256; ++c) {
        const auto cc = static_cast<std::uint8_t>(c);
        for (unsigned n = 0; n < 16; ++n) {
            nib_[c][n] = mul(cc, static_cast<std::uint8_t>(n));
            nib_[c][16 + n] = mul(cc, static_cast<std::uint8_t>(n << 4));
        }
    }
}

std::uint8_t
Gf256::div(std::uint8_t a, std::uint8_t b) const
{
    assert(b != 0);
    if (a == 0)
        return 0;
    return exp_[(log_[a] + 255 - log_[b]) % 255];
}

std::uint8_t
Gf256::inv(std::uint8_t a) const
{
    assert(a != 0);
    return exp_[(255 - log_[a]) % 255];
}

void
Gf256::mulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len) const
{
    if (c == 0)
        return;
    if (c == 1) {
        xorInto(dst, src, len);
        return;
    }
    kernel_.mulAccum(nib_[c], src, dst, len);
}

void
Gf256::mulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                std::size_t len) const
{
    if (len == 0)
        return;
    if (c == 0) {
        std::memset(dst, 0, len);
        return;
    }
    if (c == 1) {
        if (src != dst)
            std::memcpy(dst, src, len);
        return;
    }
    kernel_.mulBlock(nib_[c], src, dst, len);
}

} // namespace draid::ec
