/**
 * @file
 * Tests for the Jouppi-style write cache (retire-on-evict, LRU).
 */

#include "wb_test_fixture.hh"

namespace wbsim::test
{
namespace
{

class WriteCacheTest : public WriteBufferFixture
{
  protected:
    WriteBufferConfig
    cacheConfig(unsigned entries,
                LoadHazardPolicy policy = LoadHazardPolicy::FlushFull)
    {
        WriteBufferConfig c = config(entries, 1, policy);
        c.kind = BufferKind::WriteCache;
        return c;
    }
};

TEST_F(WriteCacheTest, NoAutonomousRetirement)
{
    build(cacheConfig(4));
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x3000, 3);
    store(0x4000, 4);
    buffer->advanceTo(10000);
    EXPECT_EQ(buffer->stats().retirements, 0u)
        << "a write cache only writes on eviction";
    EXPECT_EQ(buffer->occupancy(), 4u);
}

TEST_F(WriteCacheTest, MergesLikeACache)
{
    build(cacheConfig(4));
    store(0x1000, 1);
    store(0x1008, 2);
    store(0x1010, 3);
    EXPECT_EQ(buffer->stats().merges, 2u);
    EXPECT_EQ(buffer->occupancy(), 1u);
}

TEST_F(WriteCacheTest, EvictsLruOnOverflow)
{
    build(cacheConfig(2));
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x1008, 3); // touch 0x1000: it becomes MRU
    Cycle done = store(0x3000, 4);
    EXPECT_EQ(done, 4u) << "eviction register free: no stall";
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x2000u) << "LRU entry written out";
    EXPECT_TRUE(buffer->probeLoad(0x1000, 8).blockHit);
    EXPECT_TRUE(buffer->probeLoad(0x3000, 8).blockHit);
    EXPECT_FALSE(buffer->probeLoad(0x2000, 8).blockHit);
}

TEST_F(WriteCacheTest, BusyEvictionRegisterStallsNextEviction)
{
    build(cacheConfig(2));
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x3000, 3); // evicts 0x1000; write [3, 9)
    Cycle done = store(0x4000, 4); // needs another eviction
    EXPECT_EQ(done, 9u);
    EXPECT_EQ(stalls.bufferFullEvents, 1u);
    EXPECT_EQ(stalls.bufferFullCycles, 5u);
}

TEST_F(WriteCacheTest, FullCacheWaitsForBackgroundRetirement)
{
    WriteBufferConfig c = cacheConfig(2);
    c.retirementMode = RetirementMode::FixedRate;
    c.fixedRatePeriod = 8;
    build(c);
    store(0x1000, 1);
    store(0x2000, 2);
    // The fixed-rate attempt at 8 retires the LRU block: [8, 14).
    buffer->advanceTo(10);
    ASSERT_TRUE(buffer->retirementUnderway());
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x1000u);
    EXPECT_EQ(writes[0].start, 8u);

    // Full, with a write in flight: the store waits for that write
    // to free its slot instead of evicting through the register.
    Cycle done = store(0x3000, 10);
    EXPECT_EQ(done, 14u);
    EXPECT_EQ(stalls.bufferFullEvents, 1u);
    EXPECT_EQ(stalls.bufferFullCycles, 14u - 10u);
    EXPECT_EQ(stalls.bufferFullMaxEpisode, 14u - 10u);
    EXPECT_EQ(writes.size(), 1u) << "the eviction register wrote";
    EXPECT_EQ(buffer->stats().retirements, 1u);
    EXPECT_FALSE(buffer->retirementUnderway());
    EXPECT_TRUE(buffer->probeLoad(0x2000, 8).blockHit);
    EXPECT_TRUE(buffer->probeLoad(0x3000, 8).blockHit);
}

TEST_F(WriteCacheTest, ReadFromWbServesLoads)
{
    build(cacheConfig(4, LoadHazardPolicy::ReadFromWB));
    store(0x1000, 1);
    LoadProbe probe = buffer->probeLoad(0x1000, 8);
    ASSERT_TRUE(probe.wordHit);
    HazardResult result =
        buffer->handleLoadHazard(probe, 0x1000, 8, 2);
    EXPECT_TRUE(result.servedFromBuffer);
    EXPECT_EQ(result.done, 2u);
    EXPECT_EQ(buffer->occupancy(), 1u);
}

TEST_F(WriteCacheTest, FlushFullWritesAllEntries)
{
    build(cacheConfig(4));
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x3000, 3);
    LoadProbe probe = buffer->probeLoad(0x2000, 8);
    HazardResult result =
        buffer->handleLoadHazard(probe, 0x2000, 8, 4);
    EXPECT_EQ(result.done, 4 + 3 * kTransfer);
    EXPECT_EQ(buffer->occupancy(), 0u);
    EXPECT_EQ(buffer->stats().flushes, 3u);
}

TEST_F(WriteCacheTest, FlushItemOnlyWritesMatchingEntry)
{
    build(cacheConfig(4, LoadHazardPolicy::FlushItemOnly));
    store(0x1000, 1);
    store(0x2000, 2);
    LoadProbe probe = buffer->probeLoad(0x2000, 8);
    HazardResult result =
        buffer->handleLoadHazard(probe, 0x2000, 8, 3);
    EXPECT_EQ(result.done, 3 + kTransfer);
    EXPECT_TRUE(buffer->probeLoad(0x1000, 8).blockHit);
    EXPECT_FALSE(buffer->probeLoad(0x2000, 8).blockHit);
}

TEST_F(WriteCacheTest, HazardWaitsForEvictionInFlight)
{
    build(cacheConfig(2, LoadHazardPolicy::FlushItemOnly));
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x3000, 3); // eviction of 0x1000 in flight [3, 9)
    LoadProbe probe = buffer->probeLoad(0x2000, 8);
    HazardResult result =
        buffer->handleLoadHazard(probe, 0x2000, 8, 4);
    // Eviction drains to 9, then the flush runs [9, 15).
    EXPECT_EQ(result.done, 15u);
}

TEST_F(WriteCacheTest, DrainBelowWritesLruFirst)
{
    build(cacheConfig(4));
    store(0x1000, 1);
    store(0x2000, 2);
    store(0x1008, 3); // 0x1000 MRU
    Cycle done = buffer->drainBelow(2, 5);
    EXPECT_EQ(done, 5 + kTransfer);
    ASSERT_EQ(writes.size(), 1u);
    EXPECT_EQ(writes[0].base, 0x2000u);
    EXPECT_EQ(buffer->occupancy(), 1u);
}

TEST_F(WriteCacheTest, SequentialStreamCoalescesFully)
{
    // The write cache's selling point: a sequential store stream
    // writes back full lines, one write per line.
    build(cacheConfig(4));
    for (unsigned i = 0; i < 32; ++i)
        store(0x1000 + i * 8, i + 1);
    // 8 lines touched, 4 still resident, 4 evicted as FULL lines.
    EXPECT_EQ(writes.size(), 4u);
    for (const auto &w : writes)
        EXPECT_EQ(w.validWords, w.totalWords);
}

} // namespace
} // namespace wbsim::test
