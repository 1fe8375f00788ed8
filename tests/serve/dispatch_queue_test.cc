/**
 * @file
 * DispatchQueue tests: FCFS and priority ordering, all-or-nothing
 * batch admission (the backpressure primitive) counted in cells, and
 * close/drain semantics.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "serve/dispatch_queue.hh"

namespace wbsim::serve
{
namespace
{

DispatchJob
job(std::uint32_t priority, std::vector<int> &order, int tag)
{
    DispatchJob j;
    j.priority = priority;
    j.run = [&order, tag]() { order.push_back(tag); };
    return j;
}

TEST(DispatchDiscipline, NamesRoundTrip)
{
    EXPECT_STREQ("fcfs",
                 dispatchDisciplineName(DispatchDiscipline::Fcfs));
    EXPECT_STREQ(
        "priority",
        dispatchDisciplineName(DispatchDiscipline::Priority));
    DispatchDiscipline out;
    EXPECT_TRUE(tryParseDispatchDiscipline("priority", out));
    EXPECT_EQ(DispatchDiscipline::Priority, out);
    EXPECT_TRUE(tryParseDispatchDiscipline("fcfs", out));
    EXPECT_EQ(DispatchDiscipline::Fcfs, out);
    EXPECT_FALSE(tryParseDispatchDiscipline("lifo", out));
    EXPECT_EQ(DispatchDiscipline::Fcfs,
              parseDispatchDiscipline("fcfs"));
}

TEST(DispatchQueue, FcfsPreservesArrivalOrder)
{
    DispatchQueue queue(16, DispatchDiscipline::Fcfs);
    std::vector<int> order;
    for (int tag = 0; tag < 5; ++tag)
        ASSERT_TRUE(queue.tryPush(job(/*priority=*/99 - tag, order,
                                      tag)));
    queue.close();
    DispatchJob j;
    while (queue.pop(j))
        j.run();
    EXPECT_EQ((std::vector<int>{0, 1, 2, 3, 4}), order);
}

TEST(DispatchQueue, PriorityDispatchesHighestFirstFifoWithin)
{
    DispatchQueue queue(16, DispatchDiscipline::Priority);
    std::vector<int> order;
    ASSERT_TRUE(queue.tryPush(job(1, order, 10)));
    ASSERT_TRUE(queue.tryPush(job(5, order, 50)));
    ASSERT_TRUE(queue.tryPush(job(1, order, 11)));
    ASSERT_TRUE(queue.tryPush(job(5, order, 51)));
    ASSERT_TRUE(queue.tryPush(job(3, order, 30)));
    queue.close();
    DispatchJob j;
    while (queue.pop(j))
        j.run();
    EXPECT_EQ((std::vector<int>{50, 51, 30, 10, 11}), order);
}

TEST(DispatchQueue, BatchAdmissionIsAllOrNothing)
{
    DispatchQueue queue(4, DispatchDiscipline::Fcfs);
    std::vector<int> order;

    std::vector<DispatchJob> half;
    half.push_back(job(0, order, 0));
    half.push_back(job(0, order, 1));
    ASSERT_TRUE(queue.tryPushBatch(std::move(half)));

    // Three more do not fit (2 + 3 > 4): nothing may be admitted.
    std::vector<DispatchJob> over;
    for (int tag = 2; tag < 5; ++tag)
        over.push_back(job(0, order, tag));
    EXPECT_FALSE(queue.tryPushBatch(std::move(over)));

    DispatchQueueStats stats = queue.stats();
    EXPECT_EQ(2u, stats.pushed);
    EXPECT_EQ(1u, stats.rejected);
    EXPECT_EQ(2u, stats.depth);

    // Two more fit exactly.
    std::vector<DispatchJob> fits;
    fits.push_back(job(0, order, 2));
    fits.push_back(job(0, order, 3));
    EXPECT_TRUE(queue.tryPushBatch(std::move(fits)));
    EXPECT_EQ(4u, queue.stats().depth);
    EXPECT_FALSE(queue.tryPush(job(0, order, 9)));
}

TEST(DispatchQueue, CapacityCountsCellsNotJobs)
{
    // A job that simulates several cells is charged all of them.
    DispatchQueue queue(4, DispatchDiscipline::Fcfs);
    std::vector<int> order;
    DispatchJob group = job(0, order, 0);
    group.cells = 3;
    ASSERT_TRUE(queue.tryPush(std::move(group)));
    DispatchJob pair = job(0, order, 1);
    pair.cells = 2;
    EXPECT_FALSE(queue.tryPush(std::move(pair))); // 3 + 2 > 4
    EXPECT_TRUE(queue.tryPush(job(0, order, 2)));  // 3 + 1 fits

    DispatchQueueStats stats = queue.stats();
    EXPECT_EQ(4u, stats.pushed);
    EXPECT_EQ(4u, stats.depth);
    EXPECT_EQ(4u, stats.highWater);
    DispatchJob popped;
    ASSERT_TRUE(queue.pop(popped));
    EXPECT_EQ(3u, popped.cells);
    stats = queue.stats();
    EXPECT_EQ(3u, stats.popped);
    EXPECT_EQ(1u, stats.depth);
}

TEST(DispatchQueue, CloseDrainsThenStops)
{
    DispatchQueue queue(8, DispatchDiscipline::Fcfs);
    std::vector<int> order;
    ASSERT_TRUE(queue.tryPush(job(0, order, 1)));
    ASSERT_TRUE(queue.tryPush(job(0, order, 2)));
    queue.close();
    queue.close(); // idempotent

    EXPECT_FALSE(queue.tryPush(job(0, order, 3)))
        << "pushes must fail after close";

    DispatchJob j;
    EXPECT_TRUE(queue.pop(j));
    j.run();
    EXPECT_TRUE(queue.pop(j));
    j.run();
    EXPECT_FALSE(queue.pop(j)) << "drained + closed = false";
    EXPECT_EQ((std::vector<int>{1, 2}), order);
}

TEST(DispatchQueue, PopBlocksUntilWork)
{
    DispatchQueue queue(4, DispatchDiscipline::Fcfs);
    std::vector<int> order;
    std::thread consumer([&queue]() {
        DispatchJob j;
        ASSERT_TRUE(queue.pop(j));
        j.run();
    });
    // The consumer parks in pop(); this push must wake it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(queue.tryPush(job(0, order, 7)));
    consumer.join();
    EXPECT_EQ((std::vector<int>{7}), order);
}

TEST(DispatchQueue, CloseWakesParkedConsumers)
{
    DispatchQueue queue(4, DispatchDiscipline::Fcfs);
    std::thread consumer([&queue]() {
        DispatchJob j;
        EXPECT_FALSE(queue.pop(j));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    consumer.join();
}

TEST(DispatchQueue, HighWaterTracksDeepestDepth)
{
    DispatchQueue queue(8, DispatchDiscipline::Fcfs);
    std::vector<int> order;
    for (int tag = 0; tag < 6; ++tag)
        ASSERT_TRUE(queue.tryPush(job(0, order, tag)));
    DispatchJob j;
    ASSERT_TRUE(queue.pop(j));
    ASSERT_TRUE(queue.pop(j));
    DispatchQueueStats stats = queue.stats();
    EXPECT_EQ(6u, stats.highWater);
    EXPECT_EQ(4u, stats.depth);
    EXPECT_EQ(2u, stats.popped);
}

} // namespace
} // namespace wbsim::serve
