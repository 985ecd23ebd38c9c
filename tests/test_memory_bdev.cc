// MemoryBdev: zero-copy extent store semantics.

#include <gtest/gtest.h>

#include "blockdev/memory_bdev.h"

using namespace draid::blockdev;
using draid::ec::Buffer;

TEST(MemoryBdev, ReportsCapacity)
{
    MemoryBdev dev(1 << 20);
    EXPECT_EQ(dev.sizeBytes(), 1u << 20);
}

TEST(MemoryBdev, FreshDeviceReadsZeros)
{
    MemoryBdev dev(1 << 20);
    Buffer b = dev.readSync(1000, 512);
    Buffer zeros(512);
    EXPECT_TRUE(b.contentEquals(zeros));
    EXPECT_EQ(dev.extentCount(), 0u);
}

TEST(MemoryBdev, ReadSpanningWrittenAndUntouchedPages)
{
    // Reads build their result without zero-filling first, so the part
    // on an untouched range must be zeroed explicitly (fresh drive).
    MemoryBdev dev(8 << 20);
    const std::uint64_t page = 256 * 1024;
    Buffer data(100);
    data.fillPattern(21);
    dev.writeSync(page - 100, data);
    ASSERT_EQ(dev.extentCount(), 1u);

    Buffer got = dev.readSync(page - 100, 300);
    ASSERT_EQ(got.size(), 300u);
    EXPECT_TRUE(got.slice(0, 100).contentEquals(data));
    for (std::size_t i = 100; i < got.size(); ++i)
        EXPECT_EQ(got[i], 0) << i;

    // Untouched page first, then the written one.
    dev.writeSync(3 * page, data);
    got = dev.readSync(3 * page - 50, 150);
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(got[i], 0) << i;
    EXPECT_TRUE(got.slice(50, 100).contentEquals(data));
    EXPECT_EQ(dev.extentCount(), 2u);
}

TEST(MemoryBdev, WriteReadRoundTrip)
{
    MemoryBdev dev(8 << 20);
    Buffer data(4096);
    data.fillPattern(11);
    dev.writeSync(12345, data);
    EXPECT_TRUE(dev.readSync(12345, 4096).contentEquals(data));
}

TEST(MemoryBdev, WriteSpanningPages)
{
    MemoryBdev dev(8 << 20);
    const std::uint64_t off = 256 * 1024 - 100;
    Buffer data(300);
    data.fillPattern(12);
    dev.writeSync(off, data);
    EXPECT_TRUE(dev.readSync(off, 300).contentEquals(data));
    // One write is one extent, whatever boundary it crosses.
    EXPECT_EQ(dev.extentCount(), 1u);
}

TEST(MemoryBdev, PartialOverwrite)
{
    MemoryBdev dev(1 << 20);
    Buffer first(1000);
    first.fill(0xaa);
    dev.writeSync(0, first);
    Buffer patch(100);
    patch.fill(0xbb);
    dev.writeSync(450, patch);

    Buffer got = dev.readSync(0, 1000);
    for (int i = 0; i < 450; ++i)
        EXPECT_EQ(got[i], 0xaa);
    for (int i = 450; i < 550; ++i)
        EXPECT_EQ(got[i], 0xbb);
    for (int i = 550; i < 1000; ++i)
        EXPECT_EQ(got[i], 0xaa);
}

TEST(MemoryBdev, AsyncInterfaceCompletesInline)
{
    MemoryBdev dev(1 << 20);
    bool wrote = false, read = false;
    Buffer data(64);
    data.fill(0x42);
    dev.write(0, data, [&](IoStatus st) { wrote = st == IoStatus::kOk; });
    dev.read(0, 64, [&](IoStatus st, Buffer b) {
        read = st == IoStatus::kOk && b.contentEquals(Buffer(64)) == false;
    });
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(read);
}

TEST(MemoryBdev, SparseAllocationOnlyTouchedPages)
{
    MemoryBdev dev(1ull << 40); // 1 TB logical, no allocation yet
    Buffer data(128);
    data.fillPattern(13);
    dev.writeSync(1ull << 39, data);
    EXPECT_EQ(dev.extentCount(), 1u);
    EXPECT_TRUE(dev.readSync(1ull << 39, 128).contentEquals(data));
}

namespace {

Buffer
pattern(std::size_t len, std::uint64_t seed)
{
    Buffer b(len);
    b.fillPattern(seed);
    return b;
}

/** Expect dev[off, off+len) to equal @p want at @p at. */
void
expectRange(const MemoryBdev &dev, std::uint64_t off, const Buffer &want,
            std::size_t at, std::size_t len)
{
    EXPECT_TRUE(dev.readSync(off, static_cast<std::uint32_t>(len))
                    .contentEquals(want.slice(at, len)))
        << "at device offset " << off;
}

} // namespace

TEST(MemoryBdev, OverwriteTrimsHeadTailMiddleOrWholeExtent)
{
    MemoryBdev dev(1 << 20);
    const Buffer old = pattern(4096, 1);

    // Head: the new write covers the extent's first bytes.
    dev.writeSync(0, old);
    const Buffer head = pattern(1000, 2);
    dev.writeSync(0, head);
    EXPECT_EQ(dev.extentCount(), 2u);
    expectRange(dev, 0, head, 0, 1000);
    expectRange(dev, 1000, old, 1000, 3096);

    // Tail: the new write covers the extent's last bytes.
    dev.writeSync(8192, old);
    const Buffer tail = pattern(1000, 3);
    dev.writeSync(8192 + 3096, tail);
    expectRange(dev, 8192, old, 0, 3096);
    expectRange(dev, 8192 + 3096, tail, 0, 1000);

    // Middle: the extent splits into a head and a tail around it.
    dev.writeSync(16384, old);
    const Buffer mid = pattern(1000, 4);
    const std::size_t before = dev.extentCount();
    dev.writeSync(16384 + 1500, mid);
    EXPECT_EQ(dev.extentCount(), before + 2);
    expectRange(dev, 16384, old, 0, 1500);
    expectRange(dev, 16384 + 1500, mid, 0, 1000);
    expectRange(dev, 16384 + 2500, old, 2500, 1596);

    // Exactly: the old extent is replaced, not split.
    dev.writeSync(32768, old);
    const Buffer same = pattern(4096, 5);
    const std::size_t count = dev.extentCount();
    dev.writeSync(32768, same);
    EXPECT_EQ(dev.extentCount(), count);
    expectRange(dev, 32768, same, 0, 4096);

    // One write over several extents and the gaps between them.
    const Buffer wide = pattern(40000, 6);
    dev.writeSync(0, wide);
    expectRange(dev, 0, wide, 0, 40000);
    EXPECT_EQ(dev.extentCount(), 1u);
}

TEST(MemoryBdev, ReadAcrossExtentsAndGapsZeroesTheGaps)
{
    MemoryBdev dev(1 << 20);
    const Buffer a = pattern(500, 7);
    const Buffer b = pattern(700, 8);
    dev.writeSync(1000, a);
    dev.writeSync(2000, b);

    const Buffer got = dev.readSync(900, 2000); // [900, 2900)
    ASSERT_EQ(got.size(), 2000u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(got[i], 0) << i;
    EXPECT_TRUE(got.slice(100, 500).contentEquals(a));
    for (std::size_t i = 600; i < 1100; ++i)
        EXPECT_EQ(got[i], 0) << i;
    EXPECT_TRUE(got.slice(1100, 700).contentEquals(b));
    for (std::size_t i = 1800; i < 2000; ++i)
        EXPECT_EQ(got[i], 0) << i;

    // Two adjacent extents with no gap: an assembled copy.
    const Buffer c = pattern(300, 9);
    dev.writeSync(1500, c);
    const Buffer joined = dev.readSync(1200, 600);
    EXPECT_TRUE(joined.slice(0, 300).contentEquals(a.slice(200, 300)));
    EXPECT_TRUE(joined.slice(300, 300).contentEquals(c));
}

TEST(MemoryBdev, CoveredReadSharesTheStoredBlock)
{
    MemoryBdev dev(1 << 20);
    const Buffer data = pattern(8192, 10);
    dev.writeSync(4096, data);
    const Buffer got = dev.readSync(4096 + 100, 1000);
    EXPECT_EQ(got.data(), data.data() + 100);
    EXPECT_TRUE(got.contentEquals(data.slice(100, 1000)));
    // A read that reaches past the extent is a copy.
    EXPECT_NE(dev.readSync(4096 + 100, 9000).data(), data.data() + 100);
}

TEST(MemoryBdev, SmallViewOfLargeBlockIsStoredAsCopy)
{
    MemoryBdev dev(1 << 20);
    const Buffer block = pattern(64 * 1024, 11);

    // Half the block or more: the view itself is stored.
    const Buffer half = block.slice(0, 32 * 1024);
    dev.writeSync(0, half);
    EXPECT_EQ(dev.readSync(0, 32 * 1024).data(), block.data());

    // Less than half: a copy is stored, so the block is not pinned.
    const Buffer small = block.slice(40 * 1024, 4096);
    dev.writeSync(128 * 1024, small);
    const Buffer got = dev.readSync(128 * 1024, 4096);
    EXPECT_NE(got.data(), small.data());
    EXPECT_EQ(got.blockSize(), 4096u);
    EXPECT_TRUE(got.contentEquals(small));
}

TEST(MemoryBdev, TrimmedFragmentBelowHalfItsBlockIsCompacted)
{
    MemoryBdev dev(1 << 20);
    const Buffer data = pattern(16 * 1024, 12);
    dev.writeSync(0, data);

    // Keep 12 KB of 16 KB: still at least half, still the same block.
    dev.writeSync(12 * 1024, pattern(4096, 13));
    EXPECT_EQ(dev.readSync(0, 12 * 1024).data(), data.data());

    // Keep 4 KB of 16 KB: the fragment is copied into its own block.
    dev.writeSync(4096, pattern(8192, 14));
    const Buffer head = dev.readSync(0, 4096);
    EXPECT_NE(head.data(), data.data());
    EXPECT_EQ(head.blockSize(), 4096u);
    EXPECT_TRUE(head.contentEquals(data.slice(0, 4096)));
}

TEST(MemoryBdevDeathTest, MutatingAWrittenBufferAbortsOnRead)
{
    if (!Buffer::kPoisons)
        GTEST_SKIP() << "the extent guard runs in assert/ASan builds only";
    EXPECT_DEATH(
        {
            MemoryBdev dev(1 << 20);
            Buffer data = pattern(4096, 15);
            dev.writeSync(8192, data);
            data[17] ^= 1; // breaks the contract: the drive owns it now
            dev.readSync(8192, 4096);
        },
        "extent at offset 8192 .*modified after it was written");
}
