// dRAID failure handling (§5.4): transient failures retried with full
// stripe writes; prolonged failures fail over to degraded state.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "blockdev/nvmf_initiator.h"
#include "draid_test_util.h"

using namespace draid;
using namespace draid::testutil;
using core::DraidOptions;
using raid::RaidLevel;

namespace {

DraidOptions
opts()
{
    DraidOptions o;
    o.level = RaidLevel::kRaid5;
    o.chunkSize = 64 * 1024;
    return o;
}

} // namespace

TEST(DraidFailures, TransientTargetFailureRecoversViaRetry)
{
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(1);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    // Take the written chunk's device down (stripe 0, data index 0) and
    // schedule its recovery before retries exhaust.
    const std::uint32_t victim = g.dataDevice(0, 0);
    rig.cluster->failTarget(victim);
    rig.sim().schedule(sim::Ticks::ms(60),
                       [&]() { rig.cluster->recoverTarget(victim); });

    ec::Buffer data(8192);
    data.fillPattern(2);
    bool done = false;
    blockdev::IoStatus status = blockdev::IoStatus::kError;
    rig.host().write(0, data.clone(), [&](blockdev::IoStatus st) {
        status = st;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(status, blockdev::IoStatus::kOk);
    EXPECT_GE(rig.host().counters().retries, 1u);
    EXPECT_FALSE(rig.host().isDegraded());

    // Data and parity must be fully consistent after the retry.
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 8192);
    EXPECT_TRUE(got.contentEquals(data));
    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
}

TEST(DraidFailures, ProlongedFailureTriggersFailover)
{
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(2 * g.stripeDataSize());
    pre.fillPattern(3);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    const std::uint32_t victim = g.dataDevice(0, 0);
    rig.cluster->failTarget(victim); // never recovers

    ec::Buffer data(8192);
    data.fillPattern(4);
    bool done = false;
    blockdev::IoStatus status = blockdev::IoStatus::kError;
    rig.host().write(0, data.clone(), [&](blockdev::IoStatus st) {
        status = st;
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(status, blockdev::IoStatus::kOk);
    EXPECT_TRUE(rig.host().isDegraded());
    EXPECT_EQ(rig.host().failedDevice(), victim);
    EXPECT_GE(rig.host().counters().failovers, 1u);

    // The write completed in degraded mode; data must read back.
    ec::Buffer got = readSync(rig.sim(), rig.host(), 0, 8192);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(DraidFailures, RetryFullStripeRestoresConsistencyAfterPartialWrite)
{
    // Even if a write was half-applied before the failure, the full-stripe
    // retry must leave data+parity consistent.
    DraidRig rig(6, opts());
    const auto &g = rig.host().geometry();
    ec::Buffer pre(g.stripeDataSize());
    pre.fillPattern(5);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    // Fail the parity holder for stripe 0 just before a write; recover it
    // shortly after so the retry (full-stripe) succeeds.
    const std::uint32_t p_dev = g.parityDevice(0);
    rig.cluster->failTarget(p_dev);
    rig.sim().schedule(sim::Ticks::ms(55),
                       [&]() { rig.cluster->recoverTarget(p_dev); });

    ec::Buffer data(16384);
    data.fillPattern(6);
    bool done = false;
    rig.host().write(4096, data.clone(), [&](blockdev::IoStatus st) {
        EXPECT_EQ(st, blockdev::IoStatus::kOk);
        done = true;
        rig.sim().stop();
    });
    while (!done && rig.sim().pendingEvents() > 0)
        rig.sim().run();
    ASSERT_TRUE(done);

    EXPECT_TRUE(scrubStripe(*rig.cluster, g, 0));
    ec::Buffer got = readSync(rig.sim(), rig.host(), 4096, 16384);
    EXPECT_TRUE(got.contentEquals(data));
}

TEST(DraidFailures, NetworkJitterDelaysButCompletes)
{
    DraidRig rig(6, opts());
    rig.cluster->fabric().setExtraDelay(3, sim::Ticks::ms(2));

    ec::Buffer data(8192);
    data.fillPattern(7);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, data));
    EXPECT_EQ(rig.host().counters().retries, 0u); // jitter < timeout
    EXPECT_TRUE(scrubStripe(*rig.cluster, rig.host().geometry(), 0));
}

TEST(DraidFailures, ReadOfDownTargetTimesOutWithError)
{
    DraidRig rig(6, opts());
    ec::Buffer pre(64 * 1024);
    pre.fillPattern(8);
    ASSERT_TRUE(writeSync(rig.sim(), rig.host(), 0, pre));

    // Down but NOT marked failed at the host: plain reads time out.
    rig.cluster->failTarget(0);
    const std::uint32_t fidx =
        rig.host().geometry().dataIndexOf(0, 0);
    const std::uint64_t off =
        static_cast<std::uint64_t>(fidx) *
        rig.host().geometry().chunkSize();
    bool ok = true;
    readSync(rig.sim(), rig.host(), off, 4096, &ok);
    EXPECT_FALSE(ok);

    // After marking failed, the same read succeeds via reconstruction.
    rig.host().markFailed(0);
    bool ok2 = false;
    readSync(rig.sim(), rig.host(), off, 4096, &ok2);
    EXPECT_TRUE(ok2);
}

TEST(DraidFailures, DeadlinesDisarmOnSuccess)
{
    DraidRig rig(6, opts());
    for (int i = 0; i < 10; ++i) {
        ec::Buffer data(4096);
        data.fillPattern(i);
        ASSERT_TRUE(writeSync(rig.sim(), rig.host(), i * 4096, data));
    }
    // Let all timeout horizons pass: nothing should fire.
    rig.sim().runFor(sim::Ticks::ms(200));
    EXPECT_EQ(rig.host().counters().retries, 0u);
    EXPECT_EQ(rig.host().counters().failovers, 0u);
}

// §5.4 timeouts share one clock: an initiator I/O and a dRAID op armed in
// the same tick expire at arm + opTimeout in arm order, ahead of a plain
// event scheduled for that tick after them and behind one scheduled
// before them. The dRAID expiry journals one OpTimeout, and a drained
// run() ends exactly on the expiry tick.
TEST(DraidFailures, SameTickTimeoutsExpireInArmOrder)
{
    DraidRig rig(7, opts(), 6);
    const auto &g = rig.host().geometry();
    sim::Simulator &sim = rig.sim();
    rig.sim().runFor(sim::Ticks::ms(1));
    const sim::Ticks t0 = sim.now();
    const sim::Ticks expiry = t0 + rig.cfg.opTimeout;

    // Stripe 0 loses a data chunk; its P holder is down as well, so the
    // rebuild onto the spare (target 6) can never finish.
    const std::uint32_t p_dev = g.parityDevice(0);
    rig.host().markFailed(g.dataDevice(0, 0));
    rig.cluster->failTarget(p_dev);

    std::vector<std::string> order;
    sim.scheduleAt(expiry, [&]() { order.push_back("before"); });

    blockdev::CommandIdAllocator ids;
    blockdev::NvmfInitiator initiator(*rig.cluster, ids);
    initiator.readRemote(p_dev, 0, 4096,
                         [&](blockdev::IoStatus st, ec::Buffer) {
                             EXPECT_EQ(st, blockdev::IoStatus::kTimedOut);
                             EXPECT_EQ(sim.now(), expiry);
                             order.push_back("nvmf");
                         });
    rig.host().reconstructChunk(0, 6, [&](bool ok) {
        EXPECT_FALSE(ok);
        EXPECT_EQ(sim.now(), expiry);
        order.push_back("draid");
    });
    sim.scheduleAt(expiry, [&]() { order.push_back("after"); });

    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"before", "nvmf", "draid",
                                               "after"}));
    EXPECT_EQ(initiator.timeoutsFired(), 1u);
    EXPECT_EQ(initiator.pendingOps(), 0u);
    EXPECT_EQ(sim.now(), expiry);

    std::vector<telemetry::EventJournal::Event> timeouts;
    for (const auto &ev : rig.cluster->telemetry().journal().snapshot()) {
        if (ev.type == telemetry::EventType::kOpTimeout)
            timeouts.push_back(ev);
    }
    ASSERT_EQ(timeouts.size(), 1u);
    EXPECT_EQ(timeouts[0].tick, expiry.raw());
    EXPECT_EQ(timeouts[0].node, rig.cluster->hostId());
}
