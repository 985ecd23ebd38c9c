// MemoryBdev: sparse page store semantics.

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
    EXPECT_EQ(dev.pagesAllocated(), 0u);
}

TEST(MemoryBdev, ReadSpanningWrittenAndUntouchedPages)
{
    // Reads build their result without zero-filling first, so the part
    // on an untouched page must be zeroed explicitly (fresh drive).
    MemoryBdev dev(8 << 20);
    const std::uint64_t page = 256 * 1024;
    Buffer data(100);
    data.fillPattern(21);
    dev.writeSync(page - 100, data);
    ASSERT_EQ(dev.pagesAllocated(), 1u);

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
    EXPECT_EQ(dev.pagesAllocated(), 2u);
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
    // Page size is 256 KB; span the boundary.
    const std::uint64_t off = 256 * 1024 - 100;
    Buffer data(300);
    data.fillPattern(12);
    dev.writeSync(off, data);
    EXPECT_TRUE(dev.readSync(off, 300).contentEquals(data));
    EXPECT_EQ(dev.pagesAllocated(), 2u);
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
    dev.writeSync(1ull << 39, Buffer(128));
    EXPECT_EQ(dev.pagesAllocated(), 1u);
}
