// GF(2^8) field axioms and RAID-6 generator properties.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ec/gf256.h"

using draid::ec::Gf256;

TEST(Gf256, MultiplicationByZeroAndOne)
{
    const auto &gf = Gf256::instance();
    for (int a = 0; a < 256; ++a) {
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
        EXPECT_EQ(gf.mul(0, static_cast<std::uint8_t>(a)), 0);
        EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1), a);
    }
}

TEST(Gf256, MultiplicationCommutative)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 7) {
        for (int b = 1; b < 256; b += 11) {
            EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                      gf.mul(static_cast<std::uint8_t>(b),
                             static_cast<std::uint8_t>(a)));
        }
    }
}

TEST(Gf256, MultiplicationAssociative)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 31) {
        for (int b = 1; b < 256; b += 37) {
            for (int c = 1; c < 256; c += 41) {
                const auto x = static_cast<std::uint8_t>(a);
                const auto y = static_cast<std::uint8_t>(b);
                const auto z = static_cast<std::uint8_t>(c);
                EXPECT_EQ(gf.mul(gf.mul(x, y), z), gf.mul(x, gf.mul(y, z)));
            }
        }
    }
}

TEST(Gf256, DistributesOverXor)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; a += 13) {
        for (int b = 0; b < 256; b += 17) {
            for (int c = 0; c < 256; c += 19) {
                const auto x = static_cast<std::uint8_t>(a);
                const auto y = static_cast<std::uint8_t>(b);
                const auto z = static_cast<std::uint8_t>(c);
                EXPECT_EQ(gf.mul(x, y ^ z), gf.mul(x, y) ^ gf.mul(x, z));
            }
        }
    }
}

TEST(Gf256, InverseRoundTrips)
{
    const auto &gf = Gf256::instance();
    for (int a = 1; a < 256; ++a) {
        const auto x = static_cast<std::uint8_t>(a);
        EXPECT_EQ(gf.mul(x, gf.inv(x)), 1) << "a=" << a;
    }
}

TEST(Gf256, DivisionInvertsMultiplication)
{
    const auto &gf = Gf256::instance();
    for (int a = 0; a < 256; a += 5) {
        for (int b = 1; b < 256; b += 9) {
            const auto x = static_cast<std::uint8_t>(a);
            const auto y = static_cast<std::uint8_t>(b);
            EXPECT_EQ(gf.div(gf.mul(x, y), y), x);
        }
    }
}

TEST(Gf256, GeneratorHasFullOrder)
{
    const auto &gf = Gf256::instance();
    // g = 2 generates the whole multiplicative group: g^i distinct for
    // i in [0, 255).
    bool seen[256] = {};
    for (unsigned i = 0; i < 255; ++i) {
        const auto v = gf.pow2(i);
        EXPECT_NE(v, 0);
        EXPECT_FALSE(seen[v]) << "repeat at i=" << i;
        seen[v] = true;
    }
    EXPECT_EQ(gf.pow2(255), gf.pow2(0));
}

TEST(Gf256, Pow2MatchesRepeatedDoubling)
{
    const auto &gf = Gf256::instance();
    std::uint8_t v = 1;
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(gf.pow2(i), v);
        v = gf.mul(v, 2);
    }
}

TEST(Gf256, MulAccumMatchesScalarLoop)
{
    const auto &gf = Gf256::instance();
    std::uint8_t src[257], dst[257], ref[257];
    for (int i = 0; i < 257; ++i) {
        src[i] = static_cast<std::uint8_t>(i * 7 + 3);
        dst[i] = static_cast<std::uint8_t>(i * 13 + 5);
        ref[i] = dst[i] ^ gf.mul(0x1d, src[i]);
    }
    gf.mulAccum(0x1d, src, dst, 257);
    for (int i = 0; i < 257; ++i)
        EXPECT_EQ(dst[i], ref[i]);
}

TEST(Gf256, MulBlockByZeroClears)
{
    const auto &gf = Gf256::instance();
    std::uint8_t src[16], dst[16];
    for (int i = 0; i < 16; ++i) {
        src[i] = static_cast<std::uint8_t>(i + 1);
        dst[i] = 0xff;
    }
    gf.mulBlock(0, src, dst, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dst[i], 0);
}

// ---- Block kernels against the scalar reference mul() --------------------

namespace {

using MulFn = std::function<void(std::uint8_t c, const std::uint8_t *src,
                                 std::uint8_t *dst, std::size_t len)>;

struct Body
{
    std::string name;
    MulFn mulAccum;
    MulFn mulBlock;
};

// The public entry points plus every kernel body the host can run, the
// scalar fallback always among them.
std::vector<Body>
allBodies()
{
    const auto &gf = Gf256::instance();
    std::vector<Body> out;
    out.push_back({"Gf256",
                   [&gf](std::uint8_t c, const std::uint8_t *s,
                         std::uint8_t *d, std::size_t n) {
                       gf.mulAccum(c, s, d, n);
                   },
                   [&gf](std::uint8_t c, const std::uint8_t *s,
                         std::uint8_t *d, std::size_t n) {
                       gf.mulBlock(c, s, d, n);
                   }});
    for (const auto &k : draid::ec::detail::supportedGfKernels()) {
        out.push_back({k.name,
                       [&gf, fn = k.mulAccum](std::uint8_t c,
                                              const std::uint8_t *s,
                                              std::uint8_t *d, std::size_t n) {
                           fn(gf.nibbleTables(c), s, d, n);
                       },
                       [&gf, fn = k.mulBlock](std::uint8_t c,
                                              const std::uint8_t *s,
                                              std::uint8_t *d, std::size_t n) {
                           fn(gf.nibbleTables(c), s, d, n);
                       }});
    }
    return out;
}

// 167 is odd, so any 256 consecutive bytes take every value once.
void
fillBytes(std::uint8_t *p, std::size_t n, unsigned seed)
{
    for (std::size_t i = 0; i < n; ++i)
        p[i] = static_cast<std::uint8_t>(i * 167 + seed);
}

std::vector<std::size_t>
testLengths()
{
    std::vector<std::size_t> lens;
    for (std::size_t n = 0; n <= 100; ++n)
        lens.push_back(n);
    lens.push_back(4095);
    lens.push_back(4096);
    lens.push_back(4097);
    return lens;
}

// Runs both kernels of @p b on src+so / dst+dof and compares every byte,
// including guard bytes around the destination, with the reference.
void
checkBody(const Body &b, std::uint8_t c, std::size_t len, std::size_t so,
          std::size_t dof)
{
    const auto &gf = Gf256::instance();
    constexpr std::size_t kPad = 32;
    std::vector<std::uint8_t> src(len + 2 * kPad), dst(len + 2 * kPad);
    fillBytes(src.data(), src.size(), c);
    fillBytes(dst.data(), dst.size(), 0x5a + c);
    const std::vector<std::uint8_t> before = dst;

    b.mulAccum(c, src.data() + so, dst.data() + dof, len);
    for (std::size_t i = 0; i < dst.size(); ++i) {
        const bool in = i >= dof && i < dof + len;
        const std::uint8_t want =
            in ? before[i] ^ gf.mul(c, src[so + i - dof]) : before[i];
        ASSERT_EQ(dst[i], want) << b.name << " mulAccum c=" << int(c)
                                << " len=" << len << " so=" << so
                                << " do=" << dof << " i=" << i;
    }

    dst = before;
    b.mulBlock(c, src.data() + so, dst.data() + dof, len);
    for (std::size_t i = 0; i < dst.size(); ++i) {
        const bool in = i >= dof && i < dof + len;
        const std::uint8_t want =
            in ? gf.mul(c, src[so + i - dof]) : before[i];
        ASSERT_EQ(dst[i], want) << b.name << " mulBlock c=" << int(c)
                                << " len=" << len << " so=" << so
                                << " do=" << dof << " i=" << i;
    }
}

} // namespace

TEST(Gf256Kernels, ScalarFallbackIsAlwaysListedLast)
{
    const auto kernels = draid::ec::detail::supportedGfKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_EQ(std::string(kernels.back().name), "scalar");
}

TEST(Gf256Kernels, NibbleTablesSplitTheProduct)
{
    const auto &gf = Gf256::instance();
    for (int c = 0; c < 256; ++c) {
        const auto cc = static_cast<std::uint8_t>(c);
        const std::uint8_t *t = gf.nibbleTables(cc);
        for (int x = 0; x < 256; ++x) {
            ASSERT_EQ(t[x & 15] ^ t[16 + (x >> 4)],
                      gf.mul(cc, static_cast<std::uint8_t>(x)))
                << "c=" << c << " x=" << x;
        }
    }
}

TEST(Gf256Kernels, EveryCoefficientAndLengthMatchesReference)
{
    const auto lens = testLengths();
    for (const auto &b : allBodies()) {
        for (int c = 0; c < 256; ++c) {
            for (std::size_t len : lens) {
                // Offsets walk all of [0, 32) across lengths.
                checkBody(b, static_cast<std::uint8_t>(c), len, len % 32,
                          (len * 7 + static_cast<std::size_t>(c)) % 32);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(Gf256Kernels, EveryMisalignmentMatchesReference)
{
    const std::uint8_t coeffs[] = {0, 1, 2, 0x1d, 0x8e, 0xff};
    for (const auto &b : allBodies()) {
        for (std::uint8_t c : coeffs) {
            for (std::size_t so = 0; so < 32; ++so) {
                for (std::size_t dof = 0; dof < 32; ++dof) {
                    checkBody(b, c, 100, so, dof);
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(Gf256Kernels, MulBlockInPlaceMatchesReference)
{
    const auto &gf = Gf256::instance();
    const auto lens = testLengths();
    for (const auto &b : allBodies()) {
        for (int c = 0; c < 256; ++c) {
            const auto cc = static_cast<std::uint8_t>(c);
            for (std::size_t len : lens) {
                std::vector<std::uint8_t> buf(len + 1), orig;
                fillBytes(buf.data(), buf.size(), cc + 3);
                orig = buf;
                // Start one byte in so the SIMD body sees unaligned data.
                b.mulBlock(cc, buf.data() + 1, buf.data() + 1, len);
                ASSERT_EQ(buf[0], orig[0]);
                for (std::size_t i = 1; i <= len; ++i) {
                    ASSERT_EQ(buf[i], gf.mul(cc, orig[i]))
                        << b.name << " c=" << c << " len=" << len
                        << " i=" << i;
                }
            }
        }
    }
}
