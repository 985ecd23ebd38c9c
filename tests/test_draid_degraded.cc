// dRAID degraded state: reconstructed reads and every degraded-write case
// (§5.1 degraded handling, §6.1) must return/leave correct data.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using core::DraidOptions;
using raid::RaidLevel;

namespace {

DraidOptions
opts(RaidLevel level)
{
    DraidOptions o;
    o.level = level;
    o.chunkSize = 64 * 1024;
    return o;
}

/** Preload a recognizable pattern across several stripes. */
void
preload(DraidRig &rig, std::uint64_t bytes, std::vector<std::uint8_t> &model)
{
    model.assign(bytes, 0);
    ec::Buffer data(bytes);
    data.fillPattern(42);
    std::memcpy(model.data(), data.data(), bytes);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
}

/**
 * A 16 KB write into one data chunk of stripe 1 races a degraded read of
 * the failed chunk's matching range (whose reconstruction XORs exactly
 * the survivor and parity bytes the write updates). The read is issued at
 * a sweep of offsets from 80 us before the write to 200 us after it. The
 * failed chunk is never written, so every read must return the model's
 * bytes. @p model holds the array's content and tracks the writes.
 * @return the number of reads that returned other bytes
 */
int
wrongRacingDegradedReads(sim::Simulator &sim, blockdev::BlockDevice &dev,
                         const raid::Geometry &g,
                         std::vector<std::uint8_t> &model)
{
    const std::uint32_t fidx = 1, widx = 3;
    const std::uint32_t len = 16 * 1024;
    auto logical = [&](std::uint32_t idx) {
        return g.stripeDataSize() +
               static_cast<std::uint64_t>(idx) * g.chunkSize() + 8 * 1024;
    };
    int wrong = 0;
    for (int d = -80; d <= 200; d += 4) {
        SCOPED_TRACE("read offset " + std::to_string(d) + " us");
        ec::Buffer data(len);
        data.fillPattern(static_cast<std::uint32_t>(1000 + d));
        std::memcpy(model.data() + logical(widx), data.data(), len);
        int pending = 2;
        bool write_ok = false, read_ok = false;
        ec::Buffer got;
        auto landed = [&] {
            if (--pending == 0)
                sim.stop();
        };
        sim.schedule(sim::Ticks::us(d < 0 ? -d : 0), [&] {
            dev.write(logical(widx), data.clone(),
                      [&](blockdev::IoStatus st) {
                          write_ok = st == blockdev::IoStatus::kOk;
                          landed();
                      });
        });
        sim.schedule(sim::Ticks::us(d > 0 ? d : 0), [&] {
            dev.read(logical(fidx), len,
                     [&](blockdev::IoStatus st, ec::Buffer b) {
                         read_ok = st == blockdev::IoStatus::kOk;
                         got = std::move(b);
                         landed();
                     });
        });
        while (pending > 0 && sim.pendingEvents() > 0)
            sim.run();
        EXPECT_TRUE(write_ok);
        EXPECT_TRUE(read_ok);
        if (!read_ok ||
            std::memcmp(got.data(), model.data() + logical(fidx), len) != 0)
            ++wrong;
    }
    // Every write landed as well.
    bool ok = false;
    const ec::Buffer all = readSync(
        sim, dev, 0, static_cast<std::uint32_t>(model.size()), &ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), model.size()), 0);
    return wrong;
}

} // namespace

class DraidDegraded : public ::testing::TestWithParam<RaidLevel>
{
};

TEST_P(DraidDegraded, DegradedReadReconstructsLostChunk)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 4 * g.stripeDataSize(), model);

    rig.host().markFailed(2);

    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(model.size()),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), model.size()), 0);
    EXPECT_GE(rig.host().counters().degradedReads, 1u);
}

TEST_P(DraidDegraded, SmallDegradedReadOfLostChunkOnly)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    const std::uint32_t failed_dev = 1;
    rig.host().markFailed(failed_dev);

    // Find a logical range living exactly on the failed device, stripe 0.
    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize() + 1000;
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), off, 5000, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(got.data(), model.data() + off, 5000), 0);
}

TEST_P(DraidDegraded, DegradedWriteToUntouchedFailedChunkUsesRmw)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    // A device holding data in stripe 0 at both levels (at RAID-6 width
    // 6, device 0 holds stripe 0's Q).
    const std::uint32_t failed_dev = g.dataDevice(0, 2);
    rig.host().markFailed(failed_dev);

    // Write a chunk that is NOT on the failed device.
    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint32_t target_idx = fidx == 0 ? 1 : 0;
    const std::uint64_t off =
        static_cast<std::uint64_t>(target_idx) * g.chunkSize();
    ec::Buffer data(8192);
    data.fillPattern(77);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    // The lost chunk must still reconstruct correctly afterwards.
    bool ok = false;
    const std::uint64_t lost_off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    ec::Buffer lost = readSync(rig.sim(), rig.host(), lost_off,
                               g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(lost.data(), model.data() + lost_off,
                          g.chunkSize()),
              0);
    EXPECT_GE(rig.host().counters().degradedWrites, 1u);
}

TEST_P(DraidDegraded, DegradedWriteToFailedChunkFullCoverage)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    const std::uint32_t failed_dev = 3;
    rig.host().markFailed(failed_dev);

    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    ec::Buffer data(g.chunkSize());
    data.fillPattern(88);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    // Reading it back must reconstruct the *new* content from parity.
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), off, g.chunkSize(),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST_P(DraidDegraded, DegradedWriteToFailedChunkPartialCoverage)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 2 * g.stripeDataSize(), model);

    const std::uint32_t failed_dev = 3;
    rig.host().markFailed(failed_dev);

    const std::uint32_t fidx = g.dataIndexOf(0, failed_dev);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize() + 7000;
    ec::Buffer data(9000);
    data.fillPattern(99);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    // The whole failed chunk (old head + new middle + old tail) must
    // reconstruct.
    const std::uint64_t chunk_off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), chunk_off,
                              g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(got.data(), model.data() + chunk_off,
                          g.chunkSize()),
              0);
}

TEST_P(DraidDegraded, WriteToStripeWithFailedParity)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    preload(rig, 4 * g.stripeDataSize(), model);

    // Find a stripe whose P parity lives on device 4, then fail 4.
    std::uint64_t stripe = 0;
    while (g.parityDevice(stripe) != 4)
        ++stripe;
    rig.host().markFailed(4);

    const std::uint64_t off = stripe * g.stripeDataSize() + 123;
    ec::Buffer data(10000);
    data.fillPattern(111);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data));
    std::memcpy(model.data() + off, data.data(), data.size());

    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), off, 10000, &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST_P(DraidDegraded, FullStripeWriteWhileDegradedThenRecoverable)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    rig.host().markFailed(1);

    ec::Buffer data(g.stripeDataSize());
    data.fillPattern(321);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    // Everything (including the never-written lost chunk's content) must
    // read back via reconstruction.
    bool ok = false;
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(data.size()),
                              &ok);
    ASSERT_TRUE(ok);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST_P(DraidDegraded, MixedWorkloadWhileDegradedStaysConsistent)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    const std::uint64_t span = 6 * g.stripeDataSize();
    preload(rig, span, model);
    rig.host().markFailed(2);

    sim::Rng rng(7);
    for (int i = 0; i < 40; ++i) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(1024 * (1 + rng.nextBounded(64)));
        const std::uint64_t off = rng.nextBounded(span - len);
        ec::Buffer data(len);
        data.fillPattern(5000 + i);
        std::memcpy(model.data() + off, data.data(), len);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), off, data))
            << "write " << i;
    }
    bool ok = false;
    ec::Buffer all = readSync(rig.sim(), rig.host(), 0,
                              static_cast<std::uint32_t>(span), &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(std::memcmp(all.data(), model.data(), span), 0);
}

// Degraded reads take the stripe lock shared, so a reconstruction never
// XORs a half-applied write to the same stripe, whichever op comes first;
// the writers' lock waits behind those readers still sum to their blame.
TEST_P(DraidDegraded, DegradedReadNeverSeesHalfAppliedWrite)
{
    DraidRig rig(6, opts(GetParam()));
    const auto &g = rig.host().geometry();
    telemetry::ContentionTracker &ct =
        rig.cluster->telemetry().contention();
    ct.setEnabled(true);
    std::vector<std::uint8_t> model;
    preload(rig, 3 * g.stripeDataSize(), model);
    rig.host().markFailed(g.dataDevice(1, 1));

    EXPECT_EQ(wrongRacingDegradedReads(rig.sim(), rig.host(), g, model), 0);
    // The sweep really overlapped the two ops on the lock.
    EXPECT_GT(rig.host().stripeLocks().contendedAcquires(), 0u);
    EXPECT_EQ(ct.totalBlameTicks(), ct.totalWaitTicks());
    EXPECT_GT(ct.waitedOps(), 0u);
}

// RAID-6 degraded write into the failed chunk itself, for every failed
// data position: the survivors feed both the P and the Q bdev, so the
// write finishes without an op timeout or a retry, P and Q both match the
// model, and Q alone recovers the lost chunk.
TEST(DraidDegradedRaid6, TargetedWriteKeepsPAndQForEveryFailedPosition)
{
    const DraidOptions o = opts(RaidLevel::kRaid6);
    const raid::Geometry g(o.level, o.chunkSize, 6);
    for (std::uint32_t fidx = 0; fidx < g.dataChunks(); ++fidx) {
        SCOPED_TRACE("failed data index " + std::to_string(fidx));
        DraidRig rig(6, o);
        std::vector<std::uint8_t> model;
        preload(rig, 2 * g.stripeDataSize(), model);
        rig.host().markFailed(g.dataDevice(0, fidx));

        const std::uint64_t chunk_off =
            static_cast<std::uint64_t>(fidx) * g.chunkSize();
        ec::Buffer data(9000);
        data.fillPattern(600 + fidx);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), chunk_off + 7000, data));
        std::memcpy(model.data() + chunk_off + 7000, data.data(),
                    data.size());

        EXPECT_EQ(rig.host().counters().retries, 0u);
        for (const auto &ev : rig.cluster->telemetry().journal().snapshot())
            EXPECT_NE(ev.type, telemetry::EventType::kOpTimeout);

        // P and Q on the drives against the model's stripe 0 (the lost
        // chunk's bytes live only in the parity until a rebuild).
        auto store = [&](std::uint32_t dev) {
            return rig.cluster->target(dev).ssd().store().readSync(
                g.deviceAddress(0, 0), g.chunkSize());
        };
        std::vector<ec::Buffer> expect(g.dataChunks());
        std::vector<ec::Buffer> survivors(g.dataChunks());
        for (std::uint32_t i = 0; i < g.dataChunks(); ++i) {
            expect[i] = ec::Buffer(g.chunkSize());
            std::memcpy(expect[i].data(),
                        model.data() +
                            static_cast<std::uint64_t>(i) * g.chunkSize(),
                        g.chunkSize());
            if (i != fidx)
                survivors[i] = store(g.dataDevice(0, i));
        }
        ec::Buffer p, q;
        ec::Raid6Codec::computePQ(expect, p, q);
        EXPECT_TRUE(store(g.parityDevice(0)).contentEquals(p));
        const ec::Buffer q_disk = store(g.qDevice(0));
        EXPECT_TRUE(q_disk.contentEquals(q));

        const ec::Buffer lost =
            ec::Raid6Codec::recoverDataWithQ(survivors, q_disk, fidx);
        EXPECT_TRUE(lost.contentEquals(expect[fidx]));
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, DraidDegraded,
                         ::testing::Values(RaidLevel::kRaid5,
                                           RaidLevel::kRaid6));

TEST(DraidDegradedTraffic, DegradedReadUsesPeerTrafficNotHostNic)
{
    // §6.1: the host receives only the requested bytes; partial results
    // flow between peers.
    DraidOptions o;
    o.level = RaidLevel::kRaid5;
    o.chunkSize = 64 * 1024;
    DraidRig rig(8, o);
    const auto &g = rig.host().geometry();
    std::vector<std::uint8_t> model;
    ec::Buffer data(4 * g.stripeDataSize());
    data.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));

    rig.host().markFailed(0);
    const std::uint32_t fidx = g.dataIndexOf(0, 0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) * g.chunkSize();

    const std::uint64_t rx0 =
        rig.cluster->host().nic().rx().bytesTransferred();
    bool ok = false;
    readSync(rig.sim(), rig.host(), off, g.chunkSize(), &ok);
    ASSERT_TRUE(ok);
    const std::uint64_t host_rx =
        rig.cluster->host().nic().rx().bytesTransferred() - rx0;

    // Host receives ~1 chunk (plus capsules), NOT n-1 chunks.
    EXPECT_GE(host_rx, g.chunkSize());
    EXPECT_LT(host_rx, g.chunkSize() + 8192);
}
