// Stripe lock table: exclusivity, FIFO handoff, independence of stripes,
// and the shared mode degraded readers use.

#include <gtest/gtest.h>

#include <vector>

#include "raid/stripe_lock.h"

using draid::raid::StripeLockTable;

TEST(StripeLock, GrantsImmediatelyWhenFree)
{
    StripeLockTable t;
    bool granted = false;
    t.acquire(7, [&]() { granted = true; });
    EXPECT_TRUE(granted);
    EXPECT_TRUE(t.isLocked(7));
}

TEST(StripeLock, SecondAcquirerWaits)
{
    StripeLockTable t;
    bool second = false;
    t.acquire(1, []() {});
    t.acquire(1, [&]() { second = true; });
    EXPECT_FALSE(second);
    t.release(1);
    EXPECT_TRUE(second);
    EXPECT_TRUE(t.isLocked(1)); // handed off, still held
    t.release(1);
    EXPECT_FALSE(t.isLocked(1));
}

TEST(StripeLock, FifoOrderAmongWaiters)
{
    StripeLockTable t;
    std::vector<int> order;
    t.acquire(5, [&]() { order.push_back(0); });
    for (int i = 1; i <= 4; ++i)
        t.acquire(5, [&, i]() { order.push_back(i); });
    for (int i = 0; i < 5; ++i)
        t.release(5);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_FALSE(t.isLocked(5));
}

TEST(StripeLock, DifferentStripesIndependent)
{
    StripeLockTable t;
    bool a = false, b = false;
    t.acquire(10, [&]() { a = true; });
    t.acquire(11, [&]() { b = true; });
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(t.locksHeld(), 2u);
}

TEST(StripeLock, ContentionCounter)
{
    StripeLockTable t;
    t.acquire(3, []() {});
    EXPECT_EQ(t.contendedAcquires(), 0u);
    t.acquire(3, []() {});
    t.acquire(3, []() {});
    EXPECT_EQ(t.contendedAcquires(), 2u);
}

TEST(StripeLock, ReleaseCleansUpState)
{
    StripeLockTable t;
    t.acquire(42, []() {});
    t.release(42);
    EXPECT_EQ(t.locksHeld(), 0u);
    // Can be re-acquired after full release.
    bool again = false;
    t.acquire(42, [&]() { again = true; });
    EXPECT_TRUE(again);
}

// ---- shared mode (degraded readers) ----

TEST(StripeLock, SharedHoldersShare)
{
    StripeLockTable t;
    int granted = 0;
    t.acquireShared(4, [&]() { ++granted; });
    t.acquireShared(4, [&]() { ++granted; });
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(t.contendedAcquires(), 0u);
    t.release(4);
    EXPECT_TRUE(t.isLocked(4)); // one reader still holds
    t.release(4);
    EXPECT_FALSE(t.isLocked(4));
    EXPECT_EQ(t.locksHeld(), 0u);
}

TEST(StripeLock, WriterWaitsForEveryReader)
{
    StripeLockTable t;
    bool writer = false;
    t.acquireShared(2, []() {});
    t.acquireShared(2, []() {});
    t.acquire(2, [&]() { writer = true; });
    EXPECT_FALSE(writer);
    t.release(2);
    EXPECT_FALSE(writer);
    t.release(2);
    EXPECT_TRUE(writer);
    t.release(2);
    EXPECT_FALSE(t.isLocked(2));
}

TEST(StripeLock, ReaderQueuedBehindWriterWaits)
{
    // A reader arriving while a writer waits behind other readers must
    // not jump the queue: writers are never starved.
    StripeLockTable t;
    std::vector<int> order;
    t.acquireShared(9, [&]() { order.push_back(0); });
    t.acquire(9, [&]() { order.push_back(1); });
    t.acquireShared(9, [&]() { order.push_back(2); });
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(t.contendedAcquires(), 2u);
    t.release(9); // reader 0 leaves: the writer gets it
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    t.release(9); // writer leaves: the queued reader gets it
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    t.release(9);
    EXPECT_FALSE(t.isLocked(9));
}

TEST(StripeLock, ReleaseGrantsBatchOfConsecutiveReaders)
{
    StripeLockTable t;
    std::vector<int> order;
    t.acquire(6, [&]() { order.push_back(0); });
    for (int i = 1; i <= 3; ++i)
        t.acquireShared(6, [&, i]() { order.push_back(i); });
    t.acquire(6, [&]() { order.push_back(4); });
    t.acquireShared(6, [&]() { order.push_back(5); });

    t.release(6); // writer 0 leaves: readers 1-3 enter together
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    t.release(6);
    t.release(6);
    EXPECT_EQ(order.size(), 4u); // writer 4 still waits for reader 3
    t.release(6);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    t.release(6); // reader 5 follows writer 4 alone
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    t.release(6);
    EXPECT_EQ(t.locksHeld(), 0u);
}
