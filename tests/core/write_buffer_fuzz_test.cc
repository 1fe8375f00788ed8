/**
 * @file
 * Invariant and equivalence fuzzing of the store buffers.
 *
 * Three layers of randomized checking:
 *  - invariant fuzzing: random operation sequences against random
 *    configurations with every structural invariant (including the
 *    incremental-index integrity check) verified after every step;
 *  - twin-rig equivalence: the same operation sequence driven through
 *    a naive-scan buffer and an indexed buffer side by side, asserting
 *    cycle-identical answers and identical L2 write streams;
 *  - simulator equivalence: whole random traces replayed through two
 *    Simulators differing only in `naiveScan`, asserting bit-for-bit
 *    identical SimResults dumps.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wb_test_fixture.hh"

#include "sim/simulator.hh"
#include "trace/memory_trace.hh"
#include "util/random.hh"

namespace wbsim::test
{
namespace
{

struct FuzzConfig
{
    unsigned depth;
    unsigned mark;
    LoadHazardPolicy policy;
    bool coalescing;
    Cycle timeout;
};

class WriteBufferFuzz
    : public WriteBufferFixture,
      public ::testing::WithParamInterface<std::uint64_t>
{
  protected:
    /** Check every invariant that must hold between operations. */
    void
    checkInvariants(const WriteBufferConfig &config)
    {
        const StoreBufferStats &s = buffer->stats();
        EXPECT_LE(buffer->occupancy(), config.depth);
        EXPECT_EQ(s.stores, s.merges + s.allocations);
        EXPECT_EQ(s.entriesWritten, s.retirements + s.flushes);
        // Every allocated entry is either still resident or written;
        // an entry mid-retirement is momentarily both.
        Count in_flight = buffer->retirementUnderway() ? 1 : 0;
        EXPECT_EQ(s.allocations + in_flight,
                  s.entriesWritten + buffer->occupancy());
        EXPECT_GE(s.wordsWritten, s.entriesWritten);
        EXPECT_LE(s.wordsWritten,
                  Count{s.entriesWritten} * config.wordsPerEntry());
        buffer->verifyIndexIntegrity();
    }
};

TEST_P(WriteBufferFuzz, InvariantsHoldUnderRandomOperations)
{
    Rng rng(GetParam());
    WriteBufferConfig c = config(
        2 + static_cast<unsigned>(rng.nextBelow(11)), 1,
        static_cast<LoadHazardPolicy>(rng.nextBelow(4)));
    c.highWaterMark =
        1 + static_cast<unsigned>(rng.nextBelow(c.depth));
    c.coalescing = rng.nextBool(0.8);
    // A third of the seeds force each non-default retirement trigger
    // so the fixed-rate and age-timeout paths see as much fuzzing as
    // the occupancy default.
    switch (GetParam() % 3) {
      case 1:
        c.retirementMode = RetirementMode::FixedRate;
        c.fixedRatePeriod = 4 + rng.nextBelow(40);
        break;
      case 2:
        c.ageTimeout = 16 + rng.nextBelow(256);
        break;
      default:
        if (rng.nextBool(0.3))
            c.ageTimeout = 16 + rng.nextBelow(256);
        break;
    }
    if (rng.nextBool(0.3))
        c.retirementOrder = RetirementOrder::FullestFirst;
    // Cross-check indexed answers against the scans on every step,
    // whatever the build type.
    c.crossCheck = true;
    build(c);

    Cycle now = 0;
    for (int step = 0; step < 3000; ++step) {
        now += 1 + rng.nextBelow(8);
        Addr addr = rng.nextBelow(64) * 8; // small space: collisions
        switch (rng.nextBelow(5)) {
          case 0:
          case 1: { // store
            Cycle done = store(addr, now, rng.nextBool(0.5) ? 4 : 8);
            EXPECT_GE(done, now);
            now = done;
            break;
          }
          case 2: { // load probe + hazard handling
            buffer->advanceTo(now);
            LoadProbe probe = buffer->probeLoad(addr, 8);
            if (probe.blockHit) {
                HazardResult hazard =
                    buffer->handleLoadHazard(probe, addr, 8, now);
                EXPECT_GE(hazard.done, now);
                now = hazard.done;
                if (!hazard.servedFromBuffer
                    && c.hazardPolicy
                        != LoadHazardPolicy::ReadFromWB) {
                    EXPECT_FALSE(
                        buffer->probeLoad(addr, 8).blockHit)
                        << "flush policies must purge the line";
                }
            }
            break;
          }
          case 3: // let the engine run
            buffer->advanceTo(now);
            break;
          case 4: { // occasional partial drain
            unsigned target =
                1 + static_cast<unsigned>(rng.nextBelow(c.depth));
            now = buffer->drainBelow(target, now);
            EXPECT_LT(buffer->occupancy(), target);
            break;
          }
        }
        checkInvariants(c);
    }
    // Final full drain leaves nothing behind.
    buffer->drainBelow(1, now + 1);
    EXPECT_EQ(buffer->occupancy(), 0u);
    checkInvariants(c);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteBufferFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

/**
 * One store buffer plus its private port and L2 write recorder, so
 * two of them can replay the same operation sequence side by side.
 */
class BufferRig
{
  public:
    BufferRig(const WriteBufferConfig &config, unsigned line_bytes)
    {
        auto hook = [this](Addr base, unsigned valid, unsigned total,
                           Cycle start) {
            writes.push_back({base, valid, total, start});
            return Cycle{6}; // the fixture's fixed transfer time
        };
        buffer = std::make_unique<WriteBuffer>(config, port, hook,
                                               line_bytes);
    }

    BufferRig(const BufferRig &) = delete;
    BufferRig &operator=(const BufferRig &) = delete;

    void verify() const { buffer->verifyIndexIntegrity(); }

    L2Port port;
    std::vector<RecordedWrite> writes;
    std::unique_ptr<WriteBuffer> buffer;
    StallStats stalls;
};

class StoreBufferEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * The DESIGN.md "Performance" contract: serving queries from the
 * incremental indexes is timing-invisible. Replay one random
 * operation sequence through a naive-scan rig and an indexed rig and
 * require identical completion cycles, probes, occupancy, stalls,
 * stats, and L2 write streams.
 */
TEST_P(StoreBufferEquivalence, NaiveAndIndexedPathsAgree)
{
    Rng rng(GetParam() * 977);
    WriteBufferConfig c;
    c.depth = 2 + static_cast<unsigned>(rng.nextBelow(11));
    c.highWaterMark =
        1 + static_cast<unsigned>(rng.nextBelow(c.depth));
    c.hazardPolicy = static_cast<LoadHazardPolicy>(rng.nextBelow(4));
    c.coalescing = rng.nextBool(0.8);
    switch (GetParam() % 3) {
      case 1:
        c.retirementMode = RetirementMode::FixedRate;
        c.fixedRatePeriod = 4 + rng.nextBelow(40);
        break;
      case 2:
        c.ageTimeout = 16 + rng.nextBelow(256);
        break;
      default:
        break;
    }
    if (rng.nextBool(0.3))
        c.retirementOrder = RetirementOrder::FullestFirst;
    if (GetParam() % 4 == 0)
        c.kind = BufferKind::WriteCache;
    // Half the seeds split entries across two L1 lines so the
    // per-line residency map (not just the base map) is exercised.
    unsigned line_bytes = GetParam() % 2 == 0 ? 32 : 16;

    WriteBufferConfig naive_config = c;
    naive_config.naiveScan = true;
    naive_config.crossCheck = true;
    BufferRig naive(naive_config, line_bytes);
    BufferRig indexed(c, line_bytes); // genuinely indexed in Release

    Cycle now = 0;
    for (int step = 0; step < 3000; ++step) {
        now += 1 + rng.nextBelow(8);
        Addr addr = rng.nextBelow(64) * 8;
        switch (rng.nextBelow(5)) {
          case 0:
          case 1: { // store
            unsigned size = rng.nextBool(0.5) ? 4 : 8;
            Cycle a =
                naive.buffer->store(addr, size, now, naive.stalls);
            Cycle b =
                indexed.buffer->store(addr, size, now, indexed.stalls);
            ASSERT_EQ(a, b) << "store completion diverged";
            now = a;
            break;
          }
          case 2: { // load probe + hazard handling
            naive.buffer->advanceTo(now);
            indexed.buffer->advanceTo(now);
            LoadProbe pa = naive.buffer->probeLoad(addr, 8);
            LoadProbe pb = indexed.buffer->probeLoad(addr, 8);
            ASSERT_EQ(pa.blockHit, pb.blockHit);
            ASSERT_EQ(pa.wordHit, pb.wordHit);
            ASSERT_EQ(pa.hitSeq, pb.hitSeq);
            if (pa.blockHit) {
                HazardResult ha = naive.buffer->handleLoadHazard(
                    pa, addr, 8, now);
                HazardResult hb = indexed.buffer->handleLoadHazard(
                    pb, addr, 8, now);
                ASSERT_EQ(ha.done, hb.done) << "hazard cost diverged";
                ASSERT_EQ(ha.servedFromBuffer, hb.servedFromBuffer);
                now = ha.done;
            }
            break;
          }
          case 3: // let the engines run
            naive.buffer->advanceTo(now);
            indexed.buffer->advanceTo(now);
            break;
          case 4: { // occasional partial drain
            unsigned target =
                1 + static_cast<unsigned>(rng.nextBelow(c.depth));
            Cycle a = naive.buffer->drainBelow(target, now);
            Cycle b = indexed.buffer->drainBelow(target, now);
            ASSERT_EQ(a, b) << "drain completion diverged";
            now = a;
            break;
          }
        }
        ASSERT_EQ(naive.buffer->occupancy(),
                  indexed.buffer->occupancy());
    }
    naive.buffer->drainBelow(1, now + 1);
    indexed.buffer->drainBelow(1, now + 1);
    naive.verify();
    indexed.verify();

    // Identical L2 write streams, cycle for cycle.
    ASSERT_EQ(naive.writes.size(), indexed.writes.size());
    for (std::size_t i = 0; i < naive.writes.size(); ++i) {
        EXPECT_EQ(naive.writes[i].base, indexed.writes[i].base);
        EXPECT_EQ(naive.writes[i].validWords,
                  indexed.writes[i].validWords);
        EXPECT_EQ(naive.writes[i].start, indexed.writes[i].start);
    }
    EXPECT_EQ(naive.stalls.bufferFullCycles,
              indexed.stalls.bufferFullCycles);
    EXPECT_EQ(naive.stalls.bufferFullEvents,
              indexed.stalls.bufferFullEvents);
    const StoreBufferStats &sa = naive.buffer->stats();
    const StoreBufferStats &sb = indexed.buffer->stats();
    EXPECT_EQ(sa.merges, sb.merges);
    EXPECT_EQ(sa.allocations, sb.allocations);
    EXPECT_EQ(sa.retirements, sb.retirements);
    EXPECT_EQ(sa.flushes, sb.flushes);
    EXPECT_EQ(sa.hazards, sb.hazards);
    EXPECT_EQ(sa.wbServedLoads, sb.wbServedLoads);
    EXPECT_EQ(sa.wordsWritten, sb.wordsWritten);
    EXPECT_EQ(sa.entriesWritten, sb.entriesWritten);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreBufferEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

class SimulatorEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/** End-to-end: a whole random trace replayed through two Simulators
 *  differing only in `naiveScan` must dump identical results. */
TEST_P(SimulatorEquivalence, NaiveScanReproducesResultsBitForBit)
{
    Rng rng(GetParam() * 31337);
    std::vector<TraceRecord> records;
    records.reserve(20000);
    Addr pc = 0x10000;
    for (int i = 0; i < 20000; ++i) {
        pc += 4;
        Addr addr = (rng.nextBelow(1024) * 8) & ~Addr{7};
        switch (rng.nextBelow(10)) {
          case 0:
          case 1:
          case 2:
          case 3:
            records.push_back(TraceRecord::store(
                addr, rng.nextBool(0.5) ? 4 : 8, pc));
            break;
          case 4:
          case 5:
          case 6:
            records.push_back(TraceRecord::load(addr, 8, pc));
            break;
          case 7:
            if (rng.nextBool(0.02)) {
                records.push_back(TraceRecord::barrier(pc));
                break;
            }
            [[fallthrough]];
          default:
            records.push_back(TraceRecord::nonMem(pc));
            break;
        }
    }

    MachineConfig config;
    config.writeBuffer.hazardPolicy =
        static_cast<LoadHazardPolicy>(GetParam() % 4);
    switch (GetParam() % 3) {
      case 1:
        config.writeBuffer.retirementMode = RetirementMode::FixedRate;
        config.writeBuffer.fixedRatePeriod = 8;
        break;
      case 2:
        config.writeBuffer.ageTimeout = 64;
        break;
      default:
        break;
    }
    if (GetParam() % 5 == 0)
        config.writeBuffer.kind = BufferKind::WriteCache;
    if (GetParam() % 2 == 0)
        config.l1WriteAllocate = true;

    auto run = [&](bool naive) {
        MachineConfig variant = config;
        variant.writeBuffer.naiveScan = naive;
        Simulator sim(variant);
        MemoryTrace trace(records, "fuzz");
        return sim.run(trace, 0);
    };
    // Every field, doubles compared exactly.
    EXPECT_TRUE(run(true) == run(false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace wbsim::test
