// RAID-6 codec: P+Q generation and every one/two-erasure recovery case.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ec/raid6_codec.h"

using namespace draid::ec;

namespace {

std::vector<Buffer>
makeData(std::size_t k, std::size_t len, std::uint64_t seed)
{
    std::vector<Buffer> data;
    for (std::size_t i = 0; i < k; ++i) {
        Buffer b(len);
        b.fillPattern(seed * 1000 + i);
        data.push_back(b);
    }
    return data;
}

} // namespace

class Raid6Widths : public ::testing::TestWithParam<int>
{
};

TEST_P(Raid6Widths, RecoverOneDataWithP)
{
    const int k = GetParam();
    auto data = makeData(k, 1024, 1);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int lost = 0; lost < k; ++lost) {
        Buffer rec = Raid6Codec::recoverDataWithP(data, p, lost);
        EXPECT_TRUE(rec.contentEquals(data[lost]));
    }
}

TEST_P(Raid6Widths, RecoverOneDataWithQ)
{
    const int k = GetParam();
    auto data = makeData(k, 1024, 2);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int lost = 0; lost < k; ++lost) {
        Buffer rec = Raid6Codec::recoverDataWithQ(data, q, lost);
        EXPECT_TRUE(rec.contentEquals(data[lost])) << "lost=" << lost;
    }
}

TEST_P(Raid6Widths, RecoverTwoDataAllPairs)
{
    const int k = GetParam();
    auto data = makeData(k, 512, 3);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (int x = 0; x < k; ++x) {
        for (int y = x + 1; y < k; ++y) {
            auto broken = data;
            broken[x] = Buffer();
            broken[y] = Buffer();
            Raid6Codec::recoverTwoData(broken, p, q, x, y);
            EXPECT_TRUE(broken[x].contentEquals(data[x]))
                << "x=" << x << " y=" << y;
            EXPECT_TRUE(broken[y].contentEquals(data[y]))
                << "x=" << x << " y=" << y;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, Raid6Widths,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

TEST(Raid6Codec, GenericRecoverEveryCase)
{
    const int k = 6;
    auto data = makeData(k, 256, 4);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    struct Case
    {
        int d1, d2; // data indices to erase, -1 = none
        bool erase_p, erase_q;
    };
    const Case cases[] = {
        {2, -1, false, false}, {-1, -1, true, false},
        {-1, -1, false, true}, {3, -1, true, false},
        {4, -1, false, true},  {1, 5, false, false},
        {-1, -1, true, true},
    };

    for (const auto &c : cases) {
        auto d = data;
        Buffer tp = p.clone(), tq = q.clone();
        if (c.d1 >= 0)
            d[c.d1] = Buffer();
        if (c.d2 >= 0)
            d[c.d2] = Buffer();
        if (c.erase_p)
            tp = Buffer();
        if (c.erase_q)
            tq = Buffer();

        ASSERT_TRUE(Raid6Codec::recover(d, tp, tq));
        for (int i = 0; i < k; ++i)
            EXPECT_TRUE(d[i].contentEquals(data[i])) << "chunk " << i;
        EXPECT_TRUE(tp.contentEquals(p));
        EXPECT_TRUE(tq.contentEquals(q));
    }
}

TEST(Raid6Codec, RecoverRejectsThreeErasures)
{
    auto data = makeData(5, 128, 6);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    data[0] = Buffer();
    data[1] = Buffer();
    Buffer tp; // P also missing
    EXPECT_FALSE(Raid6Codec::recover(data, tp, q));
}

TEST(Raid6Codec, QDeltaUpdateEqualsRecompute)
{
    auto data = makeData(7, 2048, 8);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    Buffer updated(2048);
    updated.fillPattern(555);
    Buffer delta(2048);
    for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] = data[4][i] ^ updated[i];

    Raid6Codec::applyQDelta(q, delta, 4);
    data[4] = updated;
    Buffer q2 = Raid6Codec::computeQ(data);
    EXPECT_TRUE(q.contentEquals(q2));
}

TEST(Raid6Codec, PAndQDiffer)
{
    // Q must not degenerate to P (coefficients must matter) for k >= 2.
    auto data = makeData(4, 128, 9);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    EXPECT_FALSE(p.contentEquals(q));
}

TEST(Raid6Codec, RoundTripEveryDoubleErasureAtOddLength)
{
    // 4097 B is not a multiple of any SIMD width, so every GF kernel runs
    // its vector body and its scalar tail.
    const int k = 6;
    const std::size_t len = 4097;
    auto data = makeData(k, len, 10);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);

    // -1 = P, -2 = Q, otherwise a data index.
    std::vector<std::pair<int, int>> erasures;
    for (int x = 0; x < k; ++x) {
        for (int y = x + 1; y < k; ++y)
            erasures.emplace_back(x, y);
        erasures.emplace_back(x, -1);
        erasures.emplace_back(x, -2);
    }
    erasures.emplace_back(-1, -2);

    for (const auto &[a, b] : erasures) {
        auto d = data;
        Buffer tp = p.clone(), tq = q.clone();
        for (int e : {a, b}) {
            if (e == -1)
                tp = Buffer();
            else if (e == -2)
                tq = Buffer();
            else
                d[e] = Buffer();
        }
        ASSERT_TRUE(Raid6Codec::recover(d, tp, tq));
        for (int i = 0; i < k; ++i) {
            EXPECT_TRUE(d[i].contentEquals(data[i]))
                << "erased " << a << "," << b << " chunk " << i;
        }
        EXPECT_TRUE(tp.contentEquals(p)) << "erased " << a << "," << b;
        EXPECT_TRUE(tq.contentEquals(q)) << "erased " << a << "," << b;
    }
}
