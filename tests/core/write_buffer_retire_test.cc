/**
 * @file
 * Retirement-engine tests: occupancy triggers, FIFO order, the
 * read-bypassing tie rule, fixed-rate retirement, and age timeouts.
 */

#include "wb_test_fixture.hh"

namespace wbsim::test
{
namespace
{

class WriteBufferRetire : public WriteBufferFixture
{
};

TEST_F(WriteBufferRetire, NoRetirementBelowHighWaterMark)
{
    build(config(4, 2));
    store(0x1000, 1);
    buffer->advanceTo(1000);
    EXPECT_EQ(buffer->stats().retirements, 0u);
    EXPECT_EQ(buffer->occupancy(), 1u);
}

TEST_F(WriteBufferRetire, RetirementStartsWhenMarkReached)
{
    build(config(4, 2));
    store(0x1000, 1);
    store(0x2000, 2); // condition true at cycle 2
    buffer->advanceTo(100);
    // Oldest entry written [2, 8); by cycle 100 the second entry has
    // also been retired [8, 14) because occupancy stayed >= ... no:
    // after the first retirement completes occupancy is 1 < 2.
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x1000u);
    EXPECT_EQ(writes[0].start, 2u);
    EXPECT_EQ(buffer->occupancy(), 1u);
    EXPECT_EQ(buffer->stats().retirements, 1u);
}

TEST_F(WriteBufferRetire, FifoOrder)
{
    build(config(8, 8)); // retire only when all 8 occupied
    for (unsigned i = 0; i < 8; ++i)
        store(0x1000 * (i + 1), i + 1);
    buffer->advanceTo(1000);
    // Occupancy drops below 8 after the first retirement; only the
    // FIFO-oldest entry goes.
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x1000u);
}

TEST_F(WriteBufferRetire, ContinuousDrainWhileAboveMark)
{
    build(config(8, 2));
    for (unsigned i = 0; i < 6; ++i)
        store(0x1000 * (i + 1), 1 + i / 2); // rapid burst
    buffer->advanceTo(1000);
    // Occupancy >= 2 until only one entry remains: five retirements,
    // back to back on the port.
    EXPECT_EQ(buffer->stats().retirements, 5u);
    EXPECT_EQ(buffer->occupancy(), 1u);
    ASSERT_EQ(writes.size(), 5u);
    for (std::size_t i = 1; i < writes.size(); ++i)
        EXPECT_EQ(writes[i].start, writes[i - 1].start + kTransfer)
            << "retirements should be back-to-back";
}

TEST_F(WriteBufferRetire, ValidWordCountsReported)
{
    build(config(4, 2));
    store(0x1000, 1, 8); // 2 words
    store(0x1008, 2, 8); // 2 more
    store(0x2000, 3, 4); // trigger; 1 word
    buffer->advanceTo(100);
    // Only the front entry retires; the lone survivor stays.
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].validWords, 4u);
    EXPECT_EQ(writes[0].totalWords, 8u);
    buffer->drainBelow(1, 100);
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes[1].validWords, 1u);
    EXPECT_EQ(buffer->stats().wordsWritten, 5u);
    EXPECT_NEAR(buffer->stats().wordsPerWriteback(), 2.5, 1e-12);
}

TEST_F(WriteBufferRetire, LazyAdvanceMatchesEagerAdvance)
{
    // Advancing in one jump or cycle-by-cycle must be equivalent.
    auto run = [&](bool eager) {
        build(config(6, 2));
        store(0x1000, 1);
        store(0x2000, 2);
        store(0x3000, 9);
        store(0x4000, 10);
        if (eager) {
            for (Cycle t = 1; t <= 200; ++t)
                buffer->advanceTo(t);
        } else {
            buffer->advanceTo(200);
        }
        return std::make_tuple(buffer->stats().retirements,
                               buffer->occupancy(), writes);
    };
    auto a = run(true);
    auto b = run(false);
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    ASSERT_EQ(std::get<2>(a).size(), std::get<2>(b).size());
    for (std::size_t i = 0; i < std::get<2>(a).size(); ++i) {
        EXPECT_EQ(std::get<2>(a)[i].start, std::get<2>(b)[i].start);
        EXPECT_EQ(std::get<2>(a)[i].base, std::get<2>(b)[i].base);
    }
}

TEST_F(WriteBufferRetire, ReaderWinsTies)
{
    build(config(4, 2));
    store(0x1000, 1);
    store(0x2000, 2);
    // The retirement trigger is exactly cycle 2. A reader arriving
    // at cycle 2 must win the port: advanceTo(2) may not start it.
    buffer->advanceTo(2);
    EXPECT_FALSE(buffer->retirementUnderway());
    // A reader at cycle 3 loses: the write began at 2.
    buffer->advanceTo(3);
    EXPECT_TRUE(buffer->retirementUnderway());
    EXPECT_EQ(writes[0].start, 2u);
}

TEST_F(WriteBufferRetire, PortContentionDelaysRetirement)
{
    build(config(4, 2));
    // Simulate a demand read occupying L2 [0, 20).
    port->begin(L2Txn::Read, 0, 20);
    store(0x1000, 1);
    store(0x2000, 2);
    buffer->advanceTo(100);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].start, 20u) << "retirement waits for the port";
}

TEST_F(WriteBufferRetire, FixedRateRetiresOnSchedule)
{
    WriteBufferConfig c = config(8, 2);
    c.retirementMode = RetirementMode::FixedRate;
    c.fixedRatePeriod = 10;
    build(c);
    store(0x1000, 1);
    store(0x2000, 2);
    buffer->advanceTo(40);
    // Attempts at 10 and 20: two retirements.
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes[0].start, 10u);
    EXPECT_EQ(writes[1].start, 20u);
    EXPECT_EQ(buffer->occupancy(), 0u);
}

TEST_F(WriteBufferRetire, FixedRateSkipsEmptyAttempts)
{
    WriteBufferConfig c = config(8, 2);
    c.retirementMode = RetirementMode::FixedRate;
    c.fixedRatePeriod = 10;
    build(c);
    buffer->advanceTo(95); // attempts 10..90 pass with empty buffer
    store(0x1000, 95);
    buffer->advanceTo(200);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].start, 100u)
        << "next attempt after the store is cycle 100";
}

TEST_F(WriteBufferRetire, FixedRateAttemptClockNotStaleAfterEmptying)
{
    WriteBufferConfig c = config(8, 2);
    c.retirementMode = RetirementMode::FixedRate;
    c.fixedRatePeriod = 10;
    build(c);
    store(0x1000, 1);
    store(0x2000, 2);
    // This store's own advanceTo drains both entries (attempts at 10
    // and 20) before buffering the new write at cycle 1005.
    store(0x3000, 1005);
    buffer->advanceTo(2000);
    ASSERT_EQ(writes.size(), 3u);
    EXPECT_EQ(writes[0].start, 10u);
    EXPECT_EQ(writes[1].start, 20u);
    // Regression: the attempt clock used to be left at 30 when the
    // drain emptied the buffer mid-call, retiring the third write at
    // cycle 30 -- before the store that produced it. The attempt
    // grid ticks on past the empty buffer, so the first eligible
    // attempt is 1010.
    EXPECT_EQ(writes[2].start, 1010u);
}

TEST_F(WriteBufferRetire, AgeTimeoutRetiresLoneEntry)
{
    WriteBufferConfig c = config(4, 2);
    c.ageTimeout = 64; // the 21164's value
    build(c);
    store(0x1000, 5);
    buffer->advanceTo(68);
    EXPECT_EQ(buffer->stats().retirements, 0u) << "not yet stale";
    buffer->advanceTo(100);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].start, 69u) << "retire at allocation + timeout";
    EXPECT_EQ(buffer->occupancy(), 0u);
}

TEST_F(WriteBufferRetire, AgeTimeoutDoesNotPreemptOccupancyTrigger)
{
    WriteBufferConfig c = config(4, 2);
    c.ageTimeout = 256; // the 21064's value
    build(c);
    store(0x1000, 1);
    store(0x2000, 2);
    buffer->advanceTo(20);
    // Occupancy trigger fires long before the timeout.
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].start, 2u);
}

TEST_F(WriteBufferRetire, MergeRefreshDoesNotResetAge)
{
    WriteBufferConfig c = config(4, 2);
    c.ageTimeout = 64;
    build(c);
    store(0x1000, 5);
    store(0x1008, 60); // merge into the same entry
    buffer->advanceTo(200);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].start, 69u)
        << "age is from allocation, not last merge";
    EXPECT_EQ(writes[0].validWords, 4u);
}

TEST_F(WriteBufferRetire, FullestFirstOrderPicksMostValidWords)
{
    WriteBufferConfig c = config(8, 8);
    c.retirementOrder = RetirementOrder::FullestFirst;
    build(c);
    store(0x1000, 1);       // 2 words, oldest
    store(0x2000, 2);       // becomes 6 words after merges
    store(0x2008, 3);
    store(0x2010, 4);
    ASSERT_EQ(buffer->occupancy(), 2u);
    Cycle done = buffer->drainBelow(2, 5);
    (void)done;
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x2000u)
        << "fullest-first retires the 6-word entry, not the oldest";
    EXPECT_EQ(writes[0].validWords, 6u);
}

TEST_F(WriteBufferRetire, FullestFirstTieBreaksOldest)
{
    WriteBufferConfig c = config(8, 8);
    c.retirementOrder = RetirementOrder::FullestFirst;
    build(c);
    store(0x1000, 1);
    store(0x2000, 2); // same word count as 0x1000
    buffer->drainBelow(2, 3);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x1000u);
}

TEST_F(WriteBufferRetire, FlushOrderStaysFifoUnderFullestFirst)
{
    WriteBufferConfig c =
        config(8, 8, LoadHazardPolicy::FlushPartial);
    c.retirementOrder = RetirementOrder::FullestFirst;
    build(c);
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x2008, 3);
    store(0x3000, 4);
    // Hazard on 0x2000: flush-partial still walks FIFO order
    // (retirement order does not reorder hazard flushes).
    LoadProbe probe = buffer->probeLoad(0x2000, 8);
    buffer->handleLoadHazard(probe, 0x2000, 8, 5);
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes[0].base, 0x1000u);
    EXPECT_EQ(writes[1].base, 0x2000u);
    EXPECT_TRUE(buffer->probeLoad(0x3000, 8).blockHit);
}

TEST_F(WriteBufferRetire, EngineTimeAdvances)
{
    build(config(4, 2));
    buffer->advanceTo(17);
    EXPECT_EQ(buffer->engineTime(), 17u);
    buffer->advanceTo(5); // going backwards must not rewind
    EXPECT_EQ(buffer->engineTime(), 17u);
}

} // namespace
} // namespace wbsim::test
