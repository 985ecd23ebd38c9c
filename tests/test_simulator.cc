// Simulator core: event ordering, determinism, run control.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulator.h"

using namespace draid::sim;

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now().raw(), 0);
    EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulator, ExecutesEventAtScheduledTime)
{
    Simulator sim;
    Tick fired_at = -1;
    sim.schedule(Ticks{1000}, [&]() { fired_at = sim.now().raw(); });
    sim.run();
    EXPECT_EQ(fired_at, 1000);
    EXPECT_EQ(sim.now().raw(), 1000);
}

TEST(Simulator, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(Ticks{300}, [&]() { order.push_back(3); });
    sim.schedule(Ticks{100}, [&]() { order.push_back(1); });
    sim.schedule(Ticks{200}, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTickEventsFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(Ticks{50}, [&order, i]() { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingWorks)
{
    Simulator sim;
    Tick second = -1;
    sim.schedule(Ticks{10}, [&]() {
        sim.schedule(Ticks{5}, [&]() { second = sim.now().raw(); });
    });
    sim.run();
    EXPECT_EQ(second, 15);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(Ticks{100}, [&]() {
        sim.schedule(Ticks{0}, [&]() { fired = true; });
    });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now().raw(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(Ticks{100}, [&]() { ++fired; });
    sim.schedule(Ticks{200}, [&]() { ++fired; });
    sim.runUntil(Ticks{150});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().raw(), 150);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains)
{
    Simulator sim;
    sim.runUntil(Ticks{5000});
    EXPECT_EQ(sim.now().raw(), 5000);
}

TEST(Simulator, StopHaltsExecution)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(Ticks{10}, [&]() {
        ++fired;
        sim.stop();
    });
    sim.schedule(Ticks{20}, [&]() { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run(); // resumes
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForAdvancesRelative)
{
    Simulator sim;
    sim.runFor(Ticks{100});
    sim.runFor(Ticks{100});
    EXPECT_EQ(sim.now().raw(), 200);
}

TEST(Simulator, CountsExecutedEvents)
{
    Simulator sim;
    for (int i = 0; i < 25; ++i)
        sim.schedule(Ticks{i}, []() {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 25u);
}

TEST(Simulator, SameTickFifoStressInterleavedScheduleVariants)
{
    // Interleave relative schedule(), absolute scheduleAt(), labeled and
    // unlabeled overloads at scale; within a tick, execution must follow
    // scheduling order exactly, regardless of which overload queued the
    // event or how deep the same-tick batches get.
    constexpr int kTicks = 64;
    constexpr int kPerTick = 256;
    Simulator sim;
    std::vector<std::pair<Tick, int>> fired;
    fired.reserve(static_cast<std::size_t>(kTicks) * kPerTick);
    int seq = 0;
    // Round-robin across ticks so the heap interleaves ticks maximally.
    for (int j = 0; j < kPerTick; ++j) {
        for (int t = 0; t < kTicks; ++t) {
            const Tick when = 10 * (t + 1);
            const int id = seq++;
            auto fn = [&fired, &sim, id]() {
                fired.emplace_back(sim.now().raw(), id);
            };
            switch (id % 4) {
            case 0: sim.schedule(Ticks{when}, std::move(fn)); break;
            case 1: sim.schedule(Ticks{when}, "stress.rel", std::move(fn)); break;
            case 2: sim.scheduleAt(Ticks{when}, std::move(fn)); break;
            default: sim.scheduleAt(Ticks{when}, "stress.abs", std::move(fn));
            }
        }
    }
    sim.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kTicks) * kPerTick);
    // Ticks are non-decreasing, and ids within one tick strictly increase
    // in scheduling order.
    std::vector<int> perTickCount(kTicks, 0);
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_GE(fired[i].first, fired[i - 1].first);
        if (fired[i].first == fired[i - 1].first) {
            EXPECT_GT(fired[i].second, fired[i - 1].second) << "at " << i;
        }
    }
    for (const auto &[when, id] : fired) {
        EXPECT_EQ(when, 10 * (id % kTicks + 1));
        ++perTickCount[id % kTicks];
    }
    for (int t = 0; t < kTicks; ++t)
        EXPECT_EQ(perTickCount[t], kPerTick);
}

TEST(Simulator, ExecutedPlusPendingIsConserved)
{
    // eventsExecuted() + pendingEvents() must equal total scheduled at
    // every quiescent point, including while same-tick batches are only
    // partially drained (events scheduling more events).
    Simulator sim;
    std::uint64_t totalScheduled = 0;
    const auto conserved = [&]() {
        return sim.eventsExecuted() + sim.pendingEvents() == totalScheduled;
    };
    for (int i = 0; i < 100; ++i) {
        sim.schedule(Ticks{i % 7}, [&]() {
            EXPECT_TRUE(conserved());
            // Fan out from inside a batch: these land on later ticks and
            // on this very tick (delay 0) while the batch is mid-drain.
            for (int k = 0; k < 3; ++k) {
                sim.schedule(Ticks{k}, [&]() { EXPECT_TRUE(conserved()); });
                ++totalScheduled;
            }
        });
        ++totalScheduled;
    }
    EXPECT_EQ(sim.pendingEvents(), 100u);
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), totalScheduled);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(totalScheduled, 400u);
}

TEST(Simulator, StopMidBatchKeepsSameTickLeftoversPending)
{
    // stop() from inside a same-tick batch must leave the rest of the
    // batch pending (counted by pendingEvents) and a later run() must
    // execute the leftovers in the original FIFO order.
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        sim.schedule(Ticks{10}, [&sim, &order, i]() {
            order.push_back(i);
            if (i == 2)
                sim.stop();
        });
    sim.schedule(Ticks{20}, [&order]() { order.push_back(100); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now().raw(), 10);
    EXPECT_EQ(sim.eventsExecuted(), 3u);
    EXPECT_EQ(sim.pendingEvents(), 6u); // 5 same-tick leftovers + tick 20
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100}));
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, RunUntilDoesNotExecuteLeftoverBatchPastDeadline)
{
    // A stop() at tick T leaves same-tick leftovers; resuming with
    // runUntil(deadline < T) must execute none of them and must not move
    // the clock backwards.
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 4; ++i)
        sim.schedule(Ticks{100}, [&sim, &fired, i]() {
            ++fired;
            if (i == 0)
                sim.stop();
        });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().raw(), 100);
    sim.runUntil(Ticks{50});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().raw(), 100);
    EXPECT_EQ(sim.pendingEvents(), 3u);
    sim.runUntil(Ticks{100});
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, LabeledOverloadsDoNotChangeSemantics)
{
    // The label is attribution-only: two simulators running the same
    // schedule, one labeled and one not, must agree on clock, order, and
    // counters.
    const auto drive = [](Simulator &sim, bool labeled,
                          std::vector<Tick> &ticks) {
        for (int i = 0; i < 32; ++i) {
            auto fn = [&ticks, &sim]() { ticks.push_back(sim.now().raw()); };
            if (labeled)
                sim.schedule(Ticks{i * 3 % 17}, "labeled", std::move(fn));
            else
                sim.schedule(Ticks{i * 3 % 17}, std::move(fn));
        }
        sim.run();
    };
    Simulator plain;
    Simulator tagged;
    std::vector<Tick> plainTicks;
    std::vector<Tick> taggedTicks;
    drive(plain, false, plainTicks);
    drive(tagged, true, taggedTicks);
    EXPECT_EQ(plainTicks, taggedTicks);
    EXPECT_EQ(plain.now().raw(), tagged.now().raw());
    EXPECT_EQ(plain.eventsExecuted(), tagged.eventsExecuted());
}

TEST(SimulatorTime, ConversionHelpers)
{
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toMicros(kMicrosecond), 1.0);
    EXPECT_EQ(fromSeconds(1.5), 3 * kSecond / 2);
    EXPECT_EQ(fromSeconds(0.0), 0);
}
