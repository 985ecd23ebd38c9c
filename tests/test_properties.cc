// Property-style sweeps across geometries: for random workloads, dRAID
// and both baselines must agree with a reference model and leave
// scrubbable parity; dRAID must obey its bandwidth invariant.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "baselines/linux_md.h"
#include "baselines/spdk_raid.h"
#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using core::DraidOptions;
using raid::RaidLevel;

namespace {

struct Shape
{
    RaidLevel level;
    std::uint32_t width;
    std::uint32_t chunk;
};

std::string
shapeName(const ::testing::TestParamInfo<Shape> &info)
{
    const auto &s = info.param;
    return std::string(s.level == RaidLevel::kRaid6 ? "raid6" : "raid5") +
           "_w" + std::to_string(s.width) + "_c" +
           std::to_string(s.chunk / 1024) + "k";
}

} // namespace

class DraidPropertySweep : public ::testing::TestWithParam<Shape>
{
};

TEST_P(DraidPropertySweep, RandomOpsMatchModelAndScrub)
{
    const Shape s = GetParam();
    DraidOptions o;
    o.level = s.level;
    o.chunkSize = s.chunk;
    DraidRig rig(s.width, o);
    const auto &g = rig.host().geometry();

    const std::uint64_t stripes = 5;
    const std::uint64_t span = stripes * g.stripeDataSize();
    std::vector<std::uint8_t> model(span, 0);
    sim::Rng rng(s.width * 31 + s.chunk);

    for (int i = 0; i < 25; ++i) {
        const std::uint32_t len = static_cast<std::uint32_t>(
            512 * (1 + rng.nextBounded(2 * s.chunk / 512)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(i * 17 + 3);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));

        // Interleave random reads.
        const std::uint32_t rlen = static_cast<std::uint32_t>(
            512 * (1 + rng.nextBounded(16)));
        const std::uint64_t roff = rng.nextBounded(span - rlen);
        bool ok = false;
        ec::Buffer got = readSync(rig.sim(), rig.host(), roff, rlen, &ok);
        ASSERT_TRUE(ok);
        ASSERT_EQ(std::memcmp(got.data(), model.data() + roff, rlen), 0);
    }
    for (std::uint64_t st = 0; st < stripes; ++st)
        ASSERT_TRUE(scrubStripe(*rig.cluster, g, st)) << "stripe " << st;
}

TEST_P(DraidPropertySweep, HostTxNeverExceedsUserBytesPlusCapsules)
{
    // The §5 invariant, swept across shapes: writes cost 1x host tx.
    const Shape s = GetParam();
    DraidOptions o;
    o.level = s.level;
    o.chunkSize = s.chunk;
    DraidRig rig(s.width, o);
    const auto &g = rig.host().geometry();

    sim::Rng rng(s.width * 7 + 1);
    std::uint64_t user_bytes = 0;
    const std::uint64_t tx0 =
        rig.cluster->host().nic().tx().bytesTransferred();
    int capsule_budget = 0;
    for (int i = 0; i < 15; ++i) {
        // Partial writes only (full-stripe legitimately sends parity too).
        const std::uint32_t len = static_cast<std::uint32_t>(
            512 * (1 + rng.nextBounded(s.chunk / 512)));
        const std::uint64_t off =
            rng.nextBounded(4 * g.stripeDataSize() - len);
        ec::Buffer data(len);
        data.fillPattern(i);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
        user_bytes += len;
        capsule_budget += 3 * (s.level == RaidLevel::kRaid6 ? 4 : 3);
    }
    const std::uint64_t tx =
        rig.cluster->host().nic().tx().bytesTransferred() - tx0;
    EXPECT_GE(tx, user_bytes);
    EXPECT_LE(tx, user_bytes +
                      static_cast<std::uint64_t>(capsule_budget) * 256);
}

TEST_P(DraidPropertySweep, DegradedReadsMatchModelForEveryFailedDevice)
{
    const Shape s = GetParam();
    DraidOptions o;
    o.level = s.level;
    o.chunkSize = s.chunk;

    for (std::uint32_t victim = 0; victim < s.width; victim += 3) {
        DraidRig rig(s.width, o);
        const auto &g = rig.host().geometry();
        const std::uint64_t span = 3 * g.stripeDataSize();
        ec::Buffer data(span);
        data.fillPattern(victim + 1);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

        rig.host().markFailed(victim);
        bool ok = false;
        ec::Buffer got = readSync(rig.sim(), rig.host(), 0,
                                  static_cast<std::uint32_t>(span), &ok);
        ASSERT_TRUE(ok);
        EXPECT_TRUE(got.contentEquals(data)) << "victim " << victim;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DraidPropertySweep,
    ::testing::Values(Shape{RaidLevel::kRaid5, 4, 16 * 1024},
                      Shape{RaidLevel::kRaid5, 6, 64 * 1024},
                      Shape{RaidLevel::kRaid5, 9, 32 * 1024},
                      Shape{RaidLevel::kRaid6, 5, 16 * 1024},
                      Shape{RaidLevel::kRaid6, 8, 64 * 1024},
                      Shape{RaidLevel::kRaid6, 11, 32 * 1024}),
    shapeName);

class CrossSystemEquivalence : public ::testing::TestWithParam<Shape>
{
};

TEST_P(CrossSystemEquivalence, AllThreeSystemsStoreIdenticalUserData)
{
    // Same op sequence against dRAID, SPDK, and MD: all must read back
    // the same bytes (the systems differ in performance, never content),
    // healthy and then degraded, and the shared planner must have made
    // the same write-mode decisions in both phases.
    const Shape s = GetParam();

    struct Outcome
    {
        ec::Buffer healthy, degraded;
        std::uint64_t fullStripe, rmw, rcw, degradedWrites;
    };
    auto run = [&](int which) {
        cluster::TestbedConfig cfg = smallConfig();
        auto cluster = std::make_unique<cluster::Cluster>(cfg, s.width);
        std::unique_ptr<baselines::HostCentricRaid> hr;
        std::unique_ptr<core::DraidSystem> dsys;
        if (which == 0) {
            DraidOptions o;
            o.level = s.level;
            o.chunkSize = s.chunk;
            dsys = std::make_unique<core::DraidSystem>(*cluster, o);
        } else if (which == 1) {
            hr = std::make_unique<baselines::SpdkRaid>(*cluster, s.level,
                                                       s.chunk);
        } else {
            hr = std::make_unique<baselines::LinuxMdRaid>(*cluster, s.level,
                                                          s.chunk);
        }
        blockdev::BlockDevice &bd = dsys ? static_cast<blockdev::BlockDevice &>(
                                               dsys->host())
                                         : *hr;

        sim::Rng rng(2024);
        const std::uint64_t span = 3ull * (s.width - 2) * s.chunk;
        std::vector<std::uint8_t> model(span, 0);
        auto writes = [&](int first) {
            for (int i = first; i < first + 20; ++i) {
                const std::uint32_t len = static_cast<std::uint32_t>(
                    1024 * (1 + rng.nextBounded(48)));
                const std::uint64_t off = rng.nextBounded(span - len);
                ec::Buffer data(len);
                data.fillPattern(i * 7);
                std::memcpy(model.data() + off, data.data(), len);
                EXPECT_TRUE(writeSync(cluster->sim(), bd, off, data));
            }
        };
        auto read_all = [&] {
            bool ok = false;
            ec::Buffer all = readSync(cluster->sim(), bd, 0,
                                      static_cast<std::uint32_t>(span), &ok);
            EXPECT_TRUE(ok);
            EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
            return all;
        };

        Outcome out;
        writes(0);
        out.healthy = read_all();
        // The second-to-last device holds P, Q or data depending on the
        // stripe, so the degraded writes cover every planner decision.
        const std::uint32_t failed = s.width - 2;
        if (dsys)
            dsys->host().markFailed(failed);
        else
            hr->markFailed(failed);
        writes(20);
        out.degraded = read_all();
        if (dsys) {
            const auto &c = dsys->host().counters();
            out.fullStripe = c.fullStripeWrites;
            out.rmw = c.rmwWrites;
            out.rcw = c.rcwWrites;
            out.degradedWrites = c.degradedWrites;
        } else {
            const auto &c = hr->counters();
            out.fullStripe = c.fullStripeWrites;
            out.rmw = c.rmwWrites;
            out.rcw = c.rcwWrites;
            out.degradedWrites = c.degradedWrites;
        }
        return out;
    };

    const Outcome a = run(0);
    EXPECT_GT(a.degradedWrites, 0u);
    for (int which : {1, 2}) {
        SCOPED_TRACE(which == 1 ? "SPDK" : "Linux MD");
        const Outcome b = run(which);
        EXPECT_TRUE(a.healthy.contentEquals(b.healthy));
        EXPECT_TRUE(a.degraded.contentEquals(b.degraded));
        EXPECT_EQ(a.fullStripe, b.fullStripe);
        EXPECT_EQ(a.rmw, b.rmw);
        EXPECT_EQ(a.rcw, b.rcw);
        EXPECT_EQ(a.degradedWrites, b.degradedWrites);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossSystemEquivalence,
    ::testing::Values(Shape{RaidLevel::kRaid5, 6, 64 * 1024},
                      Shape{RaidLevel::kRaid6, 7, 32 * 1024}),
    shapeName);
