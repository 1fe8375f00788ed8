/**
 * @file
 * Simulator tests for the §4.3 machine-organisation extensions:
 * issue width, pipeline bubbles, narrow L2 datapaths, and the real
 * instruction cache with its L2-I-fetch stalls.
 */

#include <gtest/gtest.h>


#include "sim/simulator.hh"
#include "trace/memory_trace.hh"

namespace wbsim
{
namespace
{

std::unique_ptr<Simulator>
runTrace(const MachineConfig &config,
         const std::vector<TraceRecord> &records)
{
    auto sim = std::make_unique<Simulator>(config);
    for (const TraceRecord &rec : records)
        sim->step(rec);
    return sim;
}

TEST(SimulatorExtensions, IssueWidthCompressesNonMemTime)
{
    MachineConfig config;
    config.issueWidth = 4;
    std::vector<TraceRecord> records(8, TraceRecord::nonMem());
    auto sim = runTrace(config, records);
    EXPECT_EQ(sim->now(), 2u) << "8 instructions at 4-wide = 2 cycles";
}

TEST(SimulatorExtensions, IssueWidthRaisesStoreDensity)
{
    // §4.3: higher issue width compresses the same store stream into
    // fewer cycles, so buffer-full stalls rise.
    auto run = [](unsigned width) {
        MachineConfig config;
        config.issueWidth = width;
        std::vector<TraceRecord> records;
        for (Addr a = 1; a <= 12; ++a) {
            records.push_back(TraceRecord::store(a * 0x1000));
            records.push_back(TraceRecord::nonMem());
            records.push_back(TraceRecord::nonMem());
            records.push_back(TraceRecord::nonMem());
        }
        auto sim = runTrace(config, records);
        return sim->stalls().bufferFullCycles;
    };
    EXPECT_GT(run(4), run(1));
}

TEST(SimulatorExtensions, BubblesSpreadStores)
{
    // §4.3: pipeline bubbles spread out stores, lowering overflow.
    auto run = [](double bubbles) {
        MachineConfig config;
        config.bubbleProbability = bubbles;
        std::vector<TraceRecord> records;
        for (Addr a = 1; a <= 50; ++a)
            records.push_back(
                TraceRecord::store((a % 17 + 1) * 0x1000));
        auto sim = runTrace(config, records);
        return sim->stalls().bufferFullCycles;
    };
    EXPECT_LT(run(0.9), run(0.0));
}

TEST(SimulatorExtensions, BubblesAreDeterministic)
{
    MachineConfig config;
    config.bubbleProbability = 0.3;
    std::vector<TraceRecord> records(100, TraceRecord::nonMem());
    auto a = runTrace(config, records);
    auto b = runTrace(config, records);
    EXPECT_EQ(a->now(), b->now());
    EXPECT_GT(a->now(), 100u);
}

TEST(SimulatorExtensions, NarrowDatapathLengthensRetirements)
{
    MachineConfig config;
    config.l2DatapathBytes = 16; // half-line: 7-cycle transfers
    // One store, drained: write takes 7 cycles.
    auto sim = runTrace(config, {TraceRecord::store(0x1000)});
    sim->drain();
    EXPECT_EQ(sim->now(), 1u + 7u);
}

TEST(SimulatorExtensions, NarrowDatapathLengthensHazardFlush)
{
    MachineConfig config;
    config.l2DatapathBytes = 8; // 9-cycle transfers
    auto sim = runTrace(config, {TraceRecord::store(0x1000),
                                 TraceRecord::load(0x1000)});
    // Flush [2, 11), demand read still l2Latency: [11, 17).
    EXPECT_EQ(sim->stalls().loadHazardCycles, 9u);
    EXPECT_EQ(sim->now(), 17u);
}

TEST(SimulatorExtensions, RealICacheMissFetchesThroughL2)
{
    MachineConfig config;
    config.perfectICache = false;
    config.l1i = CacheGeometry{1024, 32, 1};
    TraceRecord rec = TraceRecord::nonMem(0x100000);
    auto sim = runTrace(config, {rec});
    // Issue 1 + I-fetch L2 read [1, 7).
    EXPECT_EQ(sim->now(), 7u);
    SimResults results = sim->results("t");
    EXPECT_EQ(results.ifetchMisses, 1u);
}

TEST(SimulatorExtensions, RealICacheHitsAfterFill)
{
    MachineConfig config;
    config.perfectICache = false;
    config.l1i = CacheGeometry{1024, 32, 1};
    TraceRecord rec = TraceRecord::nonMem(0x100000);
    auto sim = runTrace(config, {rec, rec, rec});
    EXPECT_EQ(sim->now(), 9u) << "one miss then two 1-cycle hits";
}

TEST(SimulatorExtensions, L2IFetchStallCategoryCounted)
{
    // §4.3: an I-fetch miss that waits for a write-buffer
    // transaction is the new L2-I-fetch stall category.
    MachineConfig config;
    config.perfectICache = false;
    config.l1i = CacheGeometry{1024, 32, 1};
    std::vector<TraceRecord> records = {
        TraceRecord::store(0x1000, 8, 0x100000),
        TraceRecord::store(0x2000, 8, 0x100004),
        // Retirement begins [2, 8); this instruction's fetch misses
        // (new I-line) and must wait for the port.
        TraceRecord::nonMem(0x200000),
    };
    auto sim = runTrace(config, records);
    SimResults results = sim->results("t");
    EXPECT_GT(results.l2IFetchStallCycles, 0u);
    EXPECT_EQ(results.stalls.l2ReadAccessCycles, 0u)
        << "I-fetch waits are not data-side read-access stalls";
}

TEST(SimulatorExtensions, BarrierDrainsBufferExactly)
{
    MachineConfig config;
    auto sim = runTrace(config, {TraceRecord::store(0x1000),
                                 TraceRecord::barrier()});
    // Store at 1; barrier at 2 drains the lone entry [2, 8).
    EXPECT_EQ(sim->now(), 8u);
    SimResults r = sim->results("t");
    EXPECT_EQ(r.barriers, 1u);
    EXPECT_EQ(r.barrierStallCycles, 6u);
    EXPECT_EQ(sim->buffer().occupancy(), 0u);
    // Barrier waits are their own category, not Table 3 stalls.
    EXPECT_EQ(r.stalls.totalCycles(), 0u);
}

TEST(SimulatorExtensions, BarrierOnEmptyBufferIsFree)
{
    MachineConfig config;
    auto sim = runTrace(config, {TraceRecord::barrier(),
                                 TraceRecord::barrier()});
    EXPECT_EQ(sim->now(), 2u);
    EXPECT_EQ(sim->results("t").barrierStallCycles, 0u);
}

TEST(SimulatorExtensions, BarrierWaitsForUnderwayRetirement)
{
    MachineConfig config;
    auto sim = runTrace(config, {TraceRecord::store(0x1000),
                                 TraceRecord::store(0x2000),
                                 TraceRecord::barrier()});
    // Retirement of 0x1000 runs [2, 8); the barrier at 3 waits for
    // it, then drains 0x2000 [8, 14).
    EXPECT_EQ(sim->now(), 14u);
    EXPECT_EQ(sim->results("t").barrierStallCycles, 11u);
}

TEST(SimulatorExtensions, WideEntriesCoalesceAcrossLines)
{
    MachineConfig config;
    config.writeBuffer.entryBytes = 64; // two L1 lines per entry
    config.writeBuffer.depth = 8;
    auto sim = runTrace(config, {TraceRecord::store(0x1000),
                                 TraceRecord::store(0x1020)});
    // Both lines land in one 64B entry.
    EXPECT_EQ(sim->buffer().occupancy(), 1u);
    EXPECT_EQ(sim->results("t").wbMerges, 1u);
    // Draining it transfers 64B over the 32B datapath: 6 + 1 cycles.
    sim->drain();
    EXPECT_EQ(sim->now(), 2u + 7u);
}

TEST(SimulatorExtensions, WideEntryHazardCoversBothLines)
{
    MachineConfig config;
    config.writeBuffer.entryBytes = 64;
    config.writeBuffer.depth = 8;
    config.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
    auto sim = runTrace(config, {TraceRecord::store(0x1020),
                                 TraceRecord::load(0x1020),
                                 TraceRecord::load(0x1000)});
    SimResults r = sim->results("t");
    // First load served from the buffer; second hits the same entry
    // but an invalid word -> L2 access.
    EXPECT_EQ(r.wbServedLoads, 1u);
    EXPECT_EQ(r.wbHazards, 2u);
}

TEST(SimulatorExtensions, WriteAllocateFetchesOnStoreMiss)
{
    MachineConfig config;
    config.l1WriteAllocate = true;
    auto sim = runTrace(config, {TraceRecord::store(0x1000)});
    // Issue 1 + fetch through L2 [1, 7); the store then writes.
    EXPECT_EQ(sim->now(), 7u);
    SimResults r = sim->results("t");
    EXPECT_EQ(r.storeFetches, 1u);
    EXPECT_EQ(r.storeFetchCycles, 6u);
    // The line is now resident: a load hits.
    sim->step(TraceRecord::load(0x1008));
    EXPECT_EQ(sim->l1d().loadHits(), 1u);
}

TEST(SimulatorExtensions, WriteAllocateSecondStoreHits)
{
    MachineConfig config;
    config.l1WriteAllocate = true;
    auto sim = runTrace(config, {TraceRecord::store(0x1000),
                                 TraceRecord::store(0x1008)});
    EXPECT_EQ(sim->results("t").storeFetches, 1u);
    EXPECT_EQ(sim->now(), 8u) << "second store is a 1-cycle hit";
}

TEST(SimulatorExtensions, WriteAllocatePreventsLoadHazards)
{
    // With write-allocate, a load of freshly-stored data hits the
    // (write-through-updated) L1 line instead of raising a hazard.
    MachineConfig around;
    MachineConfig allocate;
    allocate.l1WriteAllocate = true;
    auto a = runTrace(around, {TraceRecord::store(0x1000),
                               TraceRecord::load(0x1000)});
    auto b = runTrace(allocate, {TraceRecord::store(0x1000),
                                 TraceRecord::load(0x1000)});
    EXPECT_EQ(a->results("t").wbHazards, 1u);
    EXPECT_EQ(b->results("t").wbHazards, 0u);
    EXPECT_EQ(b->l1d().loadHits(), 1u);
}

TEST(SimulatorExtensions, WriteAllocateDescribed)
{
    MachineConfig config;
    config.l1WriteAllocate = true;
    EXPECT_NE(config.describe().find("+wa"), std::string::npos);
}

TEST(SimulatorExtensions, ResultsPlumbing)
{
    MachineConfig config;
    auto sim = runTrace(config, {TraceRecord::store(0x1000),
                                 TraceRecord::store(0x1008),
                                 TraceRecord::load(0x5000)});
    SimResults r = sim->results("plumb");
    EXPECT_EQ(r.workload, "plumb");
    EXPECT_EQ(r.instructions, 3u);
    EXPECT_EQ(r.loads, 1u);
    EXPECT_EQ(r.stores, 2u);
    EXPECT_EQ(r.wbMerges, 1u);
    EXPECT_EQ(r.wbAllocations, 1u);
    EXPECT_EQ(r.l1LoadMisses, 1u);
    EXPECT_DOUBLE_EQ(r.l1LoadHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.wbMergeRate(), 0.5);
    EXPECT_NE(r.machine.find("4-deep"), std::string::npos);
}

TEST(SimulatorExtensions, ResetStatsKeepsState)
{
    MachineConfig config;
    Simulator sim(config);
    sim.step(TraceRecord::load(0x1000)); // miss + fill
    sim.resetStats();
    EXPECT_EQ(sim.instructions(), 0u);
    EXPECT_EQ(sim.results("t").cycles, 0u);
    sim.step(TraceRecord::load(0x1000));
    // The fill survived the reset: this is a hit.
    EXPECT_EQ(sim.l1d().loadHits(), 1u);
    EXPECT_EQ(sim.l1d().loadMisses(), 0u);
}

} // namespace
} // namespace wbsim
