// sim::DeadlineQueue: constant-delay §5.4 deadlines on a bare Simulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sim/deadline_queue.h"
#include "sim/simulator.h"

using draid::sim::DeadlineClient;
using draid::sim::DeadlineQueue;
using draid::sim::Simulator;
using draid::sim::Ticks;

namespace {

constexpr Ticks kDelay{1000};

/** Keeps its in-flight ids in a set and logs every expiry. */
class Client : public DeadlineClient
{
  public:
    explicit Client(Simulator &sim) : sim_(sim) {}

    std::set<std::uint64_t> live;
    std::vector<std::pair<std::uint64_t, Ticks>> expired;
    std::function<void(std::uint64_t)> onExpire;

    bool
    inFlight(std::uint64_t id) const override
    {
        return live.contains(id);
    }

    void
    expire(std::uint64_t id) override
    {
        live.erase(id);
        expired.emplace_back(id, sim_.now());
        if (onExpire)
            onExpire(id);
    }

  private:
    Simulator &sim_;
};

} // namespace

TEST(DeadlineQueue, ExpiresAtArmPlusDelay)
{
    Simulator sim;
    DeadlineQueue q(sim, kDelay);
    Client c(sim);
    sim.runUntil(Ticks{250});
    c.live.insert(1);
    q.arm(c, 1, "test.deadline");

    sim.runUntil(Ticks{1249});
    EXPECT_TRUE(c.expired.empty());
    sim.run();
    ASSERT_EQ(c.expired.size(), 1u);
    EXPECT_EQ(c.expired[0].first, 1u);
    EXPECT_EQ(c.expired[0].second, Ticks{1250});
    EXPECT_EQ(sim.now(), Ticks{1250});
}

TEST(DeadlineQueue, CompletedIdNeverExpires)
{
    Simulator sim;
    DeadlineQueue q(sim, kDelay);
    Client c(sim);
    c.live = {1, 2};
    q.arm(c, 1, "test.deadline");
    sim.runUntil(Ticks{10});
    q.arm(c, 2, "test.deadline");
    sim.schedule(Ticks{500}, [&c]() { c.live.erase(1); });
    sim.schedule(Ticks{600}, [&c]() { c.live.erase(2); });
    sim.run();
    EXPECT_TRUE(c.expired.empty());
    // Nothing was live, yet the drained run still ends on the last
    // entry's expiry, as one event per deadline would have ended it.
    EXPECT_EQ(sim.now(), Ticks{1010});
}

TEST(DeadlineQueue, SameExpiryFiresInArmOrder)
{
    Simulator sim;
    DeadlineQueue q(sim, kDelay);
    Client a(sim);
    Client b(sim);
    // (client, id) per expiry; plain events log client '-'.
    std::vector<std::pair<char, std::uint64_t>> order;
    a.onExpire = [&](std::uint64_t id) { order.emplace_back('a', id); };
    b.onExpire = [&](std::uint64_t id) { order.emplace_back('b', id); };

    sim.scheduleAt(kDelay, [&]() { order.emplace_back('-', 0); });
    a.live = {1, 2};
    b.live = {7};
    q.arm(a, 2, "test.deadline");
    q.arm(b, 7, "test.deadline");
    q.arm(a, 1, "test.deadline");
    sim.scheduleAt(kDelay, [&]() { order.emplace_back('-', 1); });
    sim.run();

    const std::vector<std::pair<char, std::uint64_t>> want{
        {'-', 0}, {'a', 2}, {'b', 7}, {'a', 1}, {'-', 1}};
    EXPECT_EQ(order, want);
}

TEST(DeadlineQueue, LaterHeadKeepsArmTimePlace)
{
    Simulator sim;
    DeadlineQueue q(sim, kDelay);
    Client c(sim);
    std::vector<std::pair<char, std::uint64_t>> order;
    c.onExpire = [&](std::uint64_t id) { order.emplace_back('c', id); };
    c.live = {1, 2};
    q.arm(c, 1, "test.deadline");
    sim.runUntil(Ticks{10});
    // The head event for id 2 is only pushed when id 1 expires at 1000,
    // yet it must fire ahead of this event, scheduled after the arm.
    q.arm(c, 2, "test.deadline");
    sim.scheduleAt(Ticks{1010}, [&]() { order.emplace_back('-', 0); });
    sim.run();

    const std::vector<std::pair<char, std::uint64_t>> want{
        {'c', 1}, {'c', 2}, {'-', 0}};
    EXPECT_EQ(order, want);
}

TEST(DeadlineQueue, ManyEntriesLeaveAtMostOnePendingEvent)
{
    Simulator sim;
    DeadlineQueue q(sim, kDelay);
    Client c(sim);
    constexpr std::uint64_t kEntries = 4000; // several compactions
    for (std::uint64_t id = 0; id < kEntries; ++id) {
        c.live.insert(id);
        q.arm(c, id, "test.deadline");
        // Every even id completes at once; the odd ones expire one tick
        // apart.
        if (id % 2 == 0)
            c.live.erase(id);
        EXPECT_LE(sim.pendingEvents(), 1u);
        sim.runUntil(sim.now() + Ticks{1});
    }
    while (sim.pendingEvents() > 0) {
        EXPECT_EQ(sim.pendingEvents(), 1u);
        sim.runUntil(sim.now() + Ticks{1});
    }
    ASSERT_EQ(c.expired.size(), kEntries / 2);
    for (std::size_t i = 0; i < c.expired.size(); ++i) {
        const std::uint64_t id = 2 * i + 1;
        EXPECT_EQ(c.expired[i].first, id);
        EXPECT_EQ(c.expired[i].second,
                  Ticks{static_cast<draid::sim::Tick>(id)} + kDelay);
    }
}

TEST(DeadlineQueue, ExpireMayReArm)
{
    Simulator sim;
    DeadlineQueue q(sim, kDelay);
    Client c(sim);
    int retries = 2;
    c.onExpire = [&](std::uint64_t id) {
        if (retries-- > 0) {
            c.live.insert(id + 1);
            q.arm(c, id + 1, "test.deadline");
            // The running head event schedules the next one on return.
            EXPECT_EQ(sim.pendingEvents(), 0u);
        }
    };
    c.live.insert(10);
    q.arm(c, 10, "test.deadline");
    sim.run();

    ASSERT_EQ(c.expired.size(), 3u);
    EXPECT_EQ(c.expired[0], std::make_pair(std::uint64_t{10}, kDelay));
    EXPECT_EQ(c.expired[1],
              std::make_pair(std::uint64_t{11}, kDelay + kDelay));
    EXPECT_EQ(c.expired[2],
              std::make_pair(std::uint64_t{12}, kDelay + kDelay + kDelay));
    EXPECT_EQ(sim.pendingEvents(), 0u);
}
