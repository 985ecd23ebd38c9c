// Buffer semantics: sharing, cloning, slice views, patterns.

#include <gtest/gtest.h>

#include "ec/buffer.h"

using draid::ec::Buffer;

TEST(Buffer, DefaultIsEmpty)
{
    Buffer b;
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
}

TEST(Buffer, AllocatesZeroInitialized)
{
    Buffer b(64);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b[i], 0);
}

TEST(Buffer, CopyIsShared)
{
    Buffer a(16);
    Buffer b = a;
    a[3] = 0xaa;
    EXPECT_EQ(b[3], 0xaa);
}

TEST(Buffer, CloneIsDeep)
{
    Buffer a(16);
    a[3] = 0x11;
    Buffer b = a.clone();
    a[3] = 0x22;
    EXPECT_EQ(b[3], 0x11);
}

TEST(Buffer, SliceExtractsRange)
{
    Buffer a(10);
    for (std::size_t i = 0; i < 10; ++i)
        a[i] = static_cast<std::uint8_t>(i);
    Buffer s = a.slice(3, 4);
    ASSERT_EQ(s.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(s[i], i + 3);
}

TEST(Buffer, ContentEquals)
{
    Buffer a(8), b(8), c(9);
    a.fill(0x5a);
    b.fill(0x5a);
    EXPECT_TRUE(a.contentEquals(b));
    EXPECT_FALSE(a.contentEquals(c));
    b[0] = 0;
    EXPECT_FALSE(a.contentEquals(b));
    EXPECT_TRUE(Buffer().contentEquals(Buffer()));
}

TEST(Buffer, PatternIsDeterministicAndSeedSensitive)
{
    Buffer a(256), b(256), c(256);
    a.fillPattern(42);
    b.fillPattern(42);
    c.fillPattern(43);
    EXPECT_TRUE(a.contentEquals(b));
    EXPECT_FALSE(a.contentEquals(c));
}

TEST(Buffer, ConstructFromRawBytes)
{
    const std::uint8_t raw[] = {1, 2, 3, 4};
    Buffer b(raw, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 1);
    EXPECT_EQ(b[3], 4);
}

TEST(Buffer, SliceAliasesParentBothWays)
{
    Buffer a(16);
    Buffer s = a.slice(4, 8);
    a[5] = 0x11;
    EXPECT_EQ(s[1], 0x11);
    s[2] = 0x22;
    EXPECT_EQ(a[6], 0x22);
    EXPECT_EQ(s.data(), a.data() + 4);
}

TEST(Buffer, NestedSliceHasCombinedOffset)
{
    Buffer a(32);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<std::uint8_t>(i);
    Buffer inner = a.slice(8, 16).slice(3, 5);
    ASSERT_EQ(inner.size(), 5u);
    EXPECT_EQ(inner.data(), a.data() + 11);
    for (std::size_t i = 0; i < inner.size(); ++i)
        EXPECT_EQ(inner[i], 11 + i);
    EXPECT_TRUE(a.slice(32, 0).empty());
}

TEST(Buffer, ViewOutlivesParentHandle)
{
    Buffer s;
    {
        Buffer a(64);
        a.fillPattern(9);
        s = a.slice(10, 20);
    }
    Buffer expect(64);
    expect.fillPattern(9);
    EXPECT_TRUE(s.contentEquals(expect.slice(10, 20)));
}

TEST(Buffer, CloneOfViewIsDeepAndViewSized)
{
    Buffer a(32);
    a.fillPattern(3);
    Buffer s = a.slice(5, 7);
    Buffer c = s.clone();
    ASSERT_EQ(c.size(), 7u);
    EXPECT_NE(c.data(), s.data());
    EXPECT_TRUE(c.contentEquals(s));
    const std::uint8_t was = s[0];
    a[5] = static_cast<std::uint8_t>(~was);
    EXPECT_EQ(c[0], was);
}

TEST(Buffer, FillAndPatternOnViewTouchOnlyTheWindow)
{
    Buffer a(24);
    Buffer s = a.slice(8, 8);
    s.fill(0xee);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], i >= 8 && i < 16 ? 0xee : 0) << i;

    Buffer b(24);
    b.slice(4, 8).fillPattern(5);
    Buffer p(8);
    p.fillPattern(5);
    EXPECT_TRUE(b.slice(4, 8).contentEquals(p));
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(b[i], 0);
    for (std::size_t i = 12; i < b.size(); ++i)
        EXPECT_EQ(b[i], 0);
}

TEST(Buffer, ContentEqualsComparesViewWindows)
{
    Buffer a(16), b(16);
    a.fill(0x01);
    b.fill(0x02);
    b.slice(6, 4).fill(0x01);
    EXPECT_TRUE(a.slice(0, 4).contentEquals(b.slice(6, 4)));
    EXPECT_FALSE(a.slice(0, 5).contentEquals(b.slice(6, 5)));
    EXPECT_FALSE(a.slice(0, 4).contentEquals(b.slice(6, 5)));
}

TEST(Buffer, UninitializedHasRequestedSize)
{
    Buffer u = Buffer::uninitialized(100);
    EXPECT_EQ(u.size(), 100u);
    EXPECT_TRUE(Buffer::uninitialized(0).empty());
    if constexpr (Buffer::kPoisons) {
        for (std::size_t i = 0; i < u.size(); ++i)
            EXPECT_EQ(u[i], Buffer::kPoison);
    }
    // A clone and the raw-bytes constructor overwrite every byte.
    const std::uint8_t raw[] = {0, 0, 7};
    EXPECT_EQ(Buffer(raw, 3)[0], 0);
    Buffer zeros(9);
    Buffer c = zeros.clone();
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c[i], 0);
}

TEST(Buffer, ViewsReportTheirBlockSize)
{
    Buffer b = Buffer::uninitialized(1000);
    EXPECT_EQ(b.blockSize(), 1000u);
    EXPECT_EQ(b.slice(100, 10).blockSize(), 1000u);
    EXPECT_EQ(b.slice(100, 10).clone().blockSize(), 10u);
    EXPECT_EQ(Buffer().blockSize(), 0u);
}
