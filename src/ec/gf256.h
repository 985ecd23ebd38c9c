/**
 * @file
 * GF(2^8) arithmetic for RAID-6 (polynomial 0x11d, generator 2).
 *
 * Follows the construction in H. P. Anvin, "The mathematics of RAID-6":
 * the Q parity is sum_i g^i * D_i over GF(2^8) where g = 2. Tables are
 * built once at startup.
 *
 * The block kernels use ISA-L's split-nibble technique: c*x is
 * lo[c][x & 15] ^ hi[c][x >> 4], so a 16-entry byte shuffle (pshufb)
 * multiplies 16 or 32 bytes at a time. The body is picked once from the
 * CPU (AVX2, then SSSE3, then a portable scalar loop); results do not
 * depend on which body runs.
 */

#ifndef DRAID_EC_GF256_H
#define DRAID_EC_GF256_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace draid::ec {

namespace detail {

/**
 * One body of the split-nibble kernels. @p tables is a coefficient's 32
 * table bytes (Gf256::nibbleTables): products of the low nibble first,
 * then of the high nibble.
 */
struct GfKernel
{
    using Fn = void (*)(const std::uint8_t *tables, const std::uint8_t *src,
                        std::uint8_t *dst, std::size_t len);

    const char *name;
    Fn mulAccum; ///< dst[i] ^= c * src[i]
    Fn mulBlock; ///< dst[i] = c * src[i]; src == dst allowed
};

/**
 * Every kernel body this CPU can run, fastest first; the last is always
 * the portable scalar one. Gf256 runs the first. Listed so tests can check
 * each body, the scalar fallback included, on any host.
 */
std::span<const GfKernel> supportedGfKernels();

} // namespace detail

/** Galois field GF(2^8) with the RAID-6 polynomial x^8+x^4+x^3+x^2+1. */
class Gf256
{
  public:
    /** The singleton field instance (tables built on first use). */
    static const Gf256 &instance();

    /** Field multiply. */
    std::uint8_t
    mul(std::uint8_t a, std::uint8_t b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return exp_[log_[a] + log_[b]];
    }

    /** Field divide. @pre b != 0 */
    std::uint8_t div(std::uint8_t a, std::uint8_t b) const;

    /** Multiplicative inverse. @pre a != 0 */
    std::uint8_t inv(std::uint8_t a) const;

    /** g^n for generator g = 2 (n may exceed 255; reduced mod 255). */
    std::uint8_t pow2(unsigned n) const { return exp_[n % 255]; }

    /** Discrete log base 2 of a. @pre a != 0 */
    std::uint8_t log2(std::uint8_t a) const { return log_[a]; }

    /**
     * The split-nibble tables of @p c: bytes [0, 16) hold c * x and bytes
     * [16, 32) hold c * (x << 4), for x in [0, 16).
     */
    const std::uint8_t *nibbleTables(std::uint8_t c) const { return nib_[c]; }

    /**
     * dst[i] ^= c * src[i] — the multiply-accumulate kernel used for Q
     * parity generation and reconstruction. The ranges must not overlap.
     */
    void mulAccum(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) const;

    /**
     * dst[i] = c * src[i]. @p src may equal @p dst (in place); the ranges
     * must not overlap otherwise.
     */
    void mulBlock(std::uint8_t c, const std::uint8_t *src, std::uint8_t *dst,
                  std::size_t len) const;

  private:
    Gf256();

    // exp_ is doubled so mul() can skip the mod-255 reduction.
    std::uint8_t exp_[512];
    std::uint8_t log_[256];
    alignas(32) std::uint8_t nib_[256][32];
    detail::GfKernel kernel_;
};

} // namespace draid::ec

#endif // DRAID_EC_GF256_H
