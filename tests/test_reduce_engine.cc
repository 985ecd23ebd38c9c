// Reduce engine: session bookkeeping, late-Parity tolerance, accumulator
// math.

#include <gtest/gtest.h>

#include "core/reduce_engine.h"
#include "ec/xor_kernel.h"

using namespace draid::core;
using draid::ec::Buffer;

TEST(ReduceEngine, ObtainCreatesOnce)
{
    ReduceEngine eng;
    auto &a = eng.obtain(1);
    a.remaining = 5;
    auto &b = eng.obtain(1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.remaining, 5);
    EXPECT_EQ(eng.activeSessions(), 1u);
}

TEST(ReduceEngine, FindReturnsNullForUnknown)
{
    ReduceEngine eng;
    EXPECT_EQ(eng.find(99), nullptr);
    eng.obtain(99);
    EXPECT_NE(eng.find(99), nullptr);
    eng.erase(99);
    EXPECT_EQ(eng.find(99), nullptr);
}

TEST(ReduceEngine, AbsorbXorsAtOffset)
{
    ReduceSession s;
    s.baseOffset = 50;
    s.length = 100;
    Buffer a(100);
    a.fill(0x0f);
    ReduceEngine::absorbNoCount(s, 50, a);
    EXPECT_EQ(s.accLo, 50u);
    EXPECT_EQ(s.accEnd, 150u);
    Buffer w = ReduceEngine::finalWindow(s);
    ASSERT_EQ(w.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(w[i], 0x0f);

    Buffer b(100);
    b.fill(0xf0);
    ReduceEngine::absorbNoCount(s, 50, b);
    w = ReduceEngine::finalWindow(s);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(w[i], 0xff);
    // The contributions themselves are only read.
    EXPECT_EQ(a[0], 0x0f);
    EXPECT_EQ(b[0], 0xf0);

    // In-chunk bytes below the contributions read as zero.
    s.baseOffset = 0;
    s.length = 150;
    w = ReduceEngine::finalWindow(s);
    ASSERT_EQ(w.size(), 150u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(w[i], 0);
    for (int i = 50; i < 150; ++i)
        EXPECT_EQ(w[i], 0xff);
}

TEST(ReduceEngine, ContributionBelowFirstGrowsLeftKeepingBytes)
{
    ReduceSession s;
    Buffer hi(16);
    hi.fill(0x0f);
    ReduceEngine::absorbNoCount(s, 100, hi);
    Buffer lo(16);
    lo.fill(0x30);
    ReduceEngine::absorbNoCount(s, 40, lo);
    EXPECT_EQ(s.accLo, 40u);
    EXPECT_EQ(s.accEnd, 116u);
    EXPECT_EQ(s.acc.size(), 76u);

    // Overlap both old and new parts to check placement after growth.
    Buffer mid(56);
    mid.fill(0x01);
    ReduceEngine::absorbNoCount(s, 50, mid);

    s.baseOffset = 40;
    s.length = 76;
    Buffer w = ReduceEngine::finalWindow(s);
    for (std::uint32_t off = 40; off < 116; ++off) {
        std::uint8_t want = 0;
        if (off < 56)
            want ^= 0x30;
        if (off >= 50 && off < 106)
            want ^= 0x01;
        if (off >= 100)
            want ^= 0x0f;
        EXPECT_EQ(w[off - 40], want) << "in-chunk offset " << off;
    }
}

TEST(ReduceEngine, HostWindowWiderThanContributionsReadsZero)
{
    ReduceSession s;
    Buffer a(32);
    a.fill(0x77);
    ReduceEngine::absorbNoCount(s, 64, a);
    s.baseOffset = 32;
    s.length = 128; // [32, 160): contributions only cover [64, 96)
    Buffer w = ReduceEngine::finalWindow(s);
    ASSERT_EQ(w.size(), 128u);
    for (std::uint32_t off = 32; off < 160; ++off) {
        const std::uint8_t want = off >= 64 && off < 96 ? 0x77 : 0;
        EXPECT_EQ(w[off - 32], want) << "in-chunk offset " << off;
    }

    // No contribution at all: the whole window is zero.
    ReduceSession none;
    none.baseOffset = 8;
    none.length = 24;
    Buffer z = ReduceEngine::finalWindow(none);
    ASSERT_EQ(z.size(), 24u);
    for (std::size_t i = 0; i < z.size(); ++i)
        EXPECT_EQ(z[i], 0);
}

TEST(ReduceEngine, ZeroLengthWindowAndContribution)
{
    ReduceSession s;
    ReduceEngine::absorbNoCount(s, 40, Buffer());
    EXPECT_EQ(s.absorbed, 1u);
    EXPECT_TRUE(s.acc.empty());

    Buffer a(8);
    a.fill(0x5a);
    ReduceEngine::absorbNoCount(s, 0, a);
    s.baseOffset = 4;
    s.length = 0;
    EXPECT_TRUE(ReduceEngine::finalWindow(s).empty());
    s.baseOffset = 100; // outside what was absorbed
    EXPECT_TRUE(ReduceEngine::finalWindow(s).empty());
}

TEST(ReduceEngine, HotShapeAccumulatorIsWindowSized)
{
    // A 128 KB RMW window at chunk offset 384 KB: old-parity preload plus
    // one data server's partial.
    constexpr std::uint32_t kOff = 384 * 1024;
    constexpr std::uint32_t kLen = 128 * 1024;
    Buffer preload(kLen), partial(kLen);
    preload.fillPattern(7);
    partial.fillPattern(8);

    ReduceSession s;
    s.hostCmdSeen = true;
    s.baseOffset = kOff;
    s.length = kLen;
    s.remaining = 1;
    ReduceEngine::absorbNoCount(s, kOff, preload);
    ReduceEngine::absorb(s, kOff, partial);
    ASSERT_TRUE(ReduceEngine::readyToFinish(s));
    EXPECT_EQ(s.acc.size(), kLen);
    EXPECT_EQ(s.accLo, kOff);
    EXPECT_EQ(s.accEnd, kOff + kLen);

    Buffer w = ReduceEngine::finalWindow(s);
    EXPECT_TRUE(w.contentEquals(draid::ec::xorOf(preload, partial)));
    // The window is a view of the accumulator, not a copy.
    EXPECT_EQ(w.data(), s.acc.data());
}

TEST(ReduceEngine, AccumulatorGrowsPreservingContent)
{
    ReduceSession s;
    Buffer a(10);
    a.fill(0xaa);
    ReduceEngine::absorbNoCount(s, 0, a);
    Buffer b(10);
    b.fill(0xbb);
    ReduceEngine::absorbNoCount(s, 100, b);
    EXPECT_EQ(s.acc[5], 0xaa);
    EXPECT_EQ(s.acc[105], 0xbb);
}

TEST(ReduceEngine, CountedAbsorbDecrementsRemaining)
{
    ReduceSession s;
    s.remaining = 2;
    Buffer a(8);
    ReduceEngine::absorb(s, 0, a);
    EXPECT_EQ(s.remaining, 1);
    ReduceEngine::absorb(s, 0, a);
    EXPECT_EQ(s.remaining, 0);
    EXPECT_EQ(s.absorbed, 2u);
}

TEST(ReduceEngine, NotReadyUntilHostCommandSeen)
{
    // The §5.2 non-blocking property: peers may finish first, but the
    // session must not complete before the Parity command arrives.
    ReduceSession s;
    Buffer a(8);
    ReduceEngine::absorb(s, 0, a); // remaining -1, host unseen
    EXPECT_FALSE(ReduceEngine::readyToFinish(s));
    s.hostCmdSeen = true;
    s.remaining += 1; // wait-num from the host command
    EXPECT_TRUE(ReduceEngine::readyToFinish(s));
}

TEST(ReduceEngine, NotReadyWhileContributionsOutstanding)
{
    ReduceSession s;
    s.hostCmdSeen = true;
    s.remaining = 3;
    EXPECT_FALSE(ReduceEngine::readyToFinish(s));
    s.remaining = 0;
    EXPECT_TRUE(ReduceEngine::readyToFinish(s));
}

TEST(ReduceEngine, NotReadyWhilePreloadPending)
{
    ReduceSession s;
    s.hostCmdSeen = true;
    s.remaining = 0;
    s.preloadPending = true;
    EXPECT_FALSE(ReduceEngine::readyToFinish(s));
    s.preloadPending = false;
    EXPECT_TRUE(ReduceEngine::readyToFinish(s));
}

TEST(ReduceEngine, FinalWindowSlicesBaseRange)
{
    ReduceSession s;
    Buffer a(200);
    for (int i = 0; i < 200; ++i)
        a[i] = static_cast<std::uint8_t>(i);
    ReduceEngine::absorbNoCount(s, 0, a);
    s.baseOffset = 40;
    s.length = 10;
    Buffer w = ReduceEngine::finalWindow(s);
    ASSERT_EQ(w.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(w[i], 40 + i);
}

TEST(ReduceEngine, OrderIndependentReduction)
{
    // XOR commutes: any arrival order yields the same final window.
    Buffer p1(64), p2(64), p3(64);
    p1.fillPattern(1);
    p2.fillPattern(2);
    p3.fillPattern(3);

    ReduceSession fwd, rev;
    for (auto *s : {&fwd, &rev}) {
        s->baseOffset = 0;
        s->length = 64;
    }
    ReduceEngine::absorbNoCount(fwd, 0, p1);
    ReduceEngine::absorbNoCount(fwd, 0, p2);
    ReduceEngine::absorbNoCount(fwd, 0, p3);
    ReduceEngine::absorbNoCount(rev, 0, p3);
    ReduceEngine::absorbNoCount(rev, 0, p1);
    ReduceEngine::absorbNoCount(rev, 0, p2);
    EXPECT_TRUE(ReduceEngine::finalWindow(fwd).contentEquals(
        ReduceEngine::finalWindow(rev)));
}
