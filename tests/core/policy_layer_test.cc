/**
 * @file
 * Matrix tests for the shared retirement engine and policy layer:
 * drainBelow and cloneRebound across both organisations, every load
 * hazard policy, and both retirement modes — including snapshots
 * taken while a retirement is in flight. Also pins the policy wiring
 * this layer added to the write cache (fixed-rate and age-timeout
 * retirement used to be silently ignored there).
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/write_buffer.hh"
#include "mem/l2_port.hh"

namespace wbsim::test
{
namespace
{

/** One recorded L2 write from the buffer under test. */
struct Write
{
    Addr base;
    unsigned validWords;
    Cycle start;

    bool
    operator==(const Write &other) const
    {
        return base == other.base && validWords == other.validWords
            && start == other.start;
    }
};

/** A buffer under test plus its own port and write recorder. */
struct Rig
{
    std::unique_ptr<L2Port> port = std::make_unique<L2Port>();
    std::vector<Write> writes;
    std::unique_ptr<WriteBuffer> buffer;

    L2WriteHook
    recorder()
    {
        return [this](Addr base, unsigned valid, unsigned total,
                      Cycle start) {
            (void)total;
            writes.push_back({base, valid, start});
            return Cycle(6);
        };
    }

    void
    build(const WriteBufferConfig &config)
    {
        buffer = std::make_unique<WriteBuffer>(config, *port, recorder());
    }
};

/** The scalar counters of StoreBufferStats, comparable. */
using Counters = std::array<Count, 9>;

Counters
counters(const StoreBufferStats &stats)
{
    return {stats.stores, stats.merges, stats.allocations,
            stats.retirements, stats.flushes, stats.hazards,
            stats.wbServedLoads, stats.wordsWritten,
            stats.entriesWritten};
}

struct PolicyCase
{
    BufferKind kind;
    RetirementMode mode;
    LoadHazardPolicy hazard;
};

std::string
policyCaseName(const ::testing::TestParamInfo<PolicyCase> &info)
{
    std::string name;
    name += info.param.kind == BufferKind::WriteCache ? "wc" : "wb";
    switch (info.param.mode) {
      case RetirementMode::FixedRate:
        name += "_fixedrate_";
        break;
      case RetirementMode::Paced:
        name += "_paced_";
        break;
      case RetirementMode::Occupancy:
        name += "_occupancy_";
        break;
    }
    name += loadHazardPolicyName(info.param.hazard);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

std::vector<PolicyCase>
allPolicyCases()
{
    std::vector<PolicyCase> cases;
    for (BufferKind kind :
         {BufferKind::WriteBuffer, BufferKind::WriteCache})
        for (RetirementMode mode :
             {RetirementMode::Occupancy, RetirementMode::FixedRate,
              RetirementMode::Paced})
            for (LoadHazardPolicy hazard :
                 {LoadHazardPolicy::FlushFull,
                  LoadHazardPolicy::FlushPartial,
                  LoadHazardPolicy::FlushItemOnly,
                  LoadHazardPolicy::ReadFromWB})
                cases.push_back({kind, mode, hazard});
    return cases;
}

class PolicyMatrix : public ::testing::TestWithParam<PolicyCase>
{
  protected:
    static WriteBufferConfig
    makeConfig(const PolicyCase &c)
    {
        WriteBufferConfig config;
        config.kind = c.kind;
        config.retirementMode = c.mode;
        config.hazardPolicy = c.hazard;
        config.depth = 4;
        config.highWaterMark = 2;
        config.fixedRatePeriod = 8;
        config.pacedRefillPeriod = 8;
        config.pacedBurst = 2;
        config.crossCheck = true; // naive twin verifies every step
        return config;
    }

    /** A workload mixing merges, allocations, full-buffer waits, a
     *  load hazard, and a partial drain. @return the end cycle. */
    static Cycle
    drive(WriteBuffer &buffer, Cycle t)
    {
        StallStats stalls;
        for (unsigned i = 0; i < 10; ++i) {
            Cycle done =
                buffer.store(0x4000 + Addr(i % 6) * 64, 8, t, stalls);
            t = std::max(t + 2, done + 1);
        }
        // A store immediately probed back: a guaranteed hazard.
        t = buffer.store(0x9000, 8, t, stalls);
        buffer.advanceTo(t);
        LoadProbe probe = buffer.probeLoad(0x9000, 8);
        EXPECT_TRUE(probe.blockHit);
        HazardResult hazard =
            buffer.handleLoadHazard(probe, 0x9000, 8, t);
        t = std::max(t, hazard.done) + 1;
        t = buffer.drainBelow(2, t) + 3;
        buffer.advanceTo(t);
        return t;
    }
};

TEST_P(PolicyMatrix, DrainBelowEmptiesAndAccountsEveryEntry)
{
    Rig rig;
    rig.build(makeConfig(GetParam()));
    StallStats stalls;
    Cycle t = 0;
    for (unsigned i = 0; i < 6; ++i)
        t = rig.buffer->store(Addr(i) * 64, 8, t, stalls) + 1;

    Cycle done = rig.buffer->drainBelow(1, t);
    EXPECT_GE(done, t);
    EXPECT_EQ(rig.buffer->occupancy(), 0u);
    EXPECT_TRUE(rig.buffer->quiescent());

    const StoreBufferStats &stats = rig.buffer->stats();
    EXPECT_EQ(stats.allocations, 6u);
    // Fully drained: every allocated entry went to L2 exactly once.
    EXPECT_EQ(stats.entriesWritten, stats.allocations);
    EXPECT_EQ(stats.entriesWritten, stats.retirements + stats.flushes);
    EXPECT_EQ(rig.writes.size(), stats.entriesWritten);

    // Draining an empty buffer is a timing no-op.
    EXPECT_EQ(rig.buffer->drainBelow(1, done + 10), done + 10);
}

TEST_P(PolicyMatrix, CloneReboundMatchesAndIsIndependent)
{
    Rig original;
    original.build(makeConfig(GetParam()));
    Cycle t = drive(*original.buffer, 0);

    Rig clone;
    *clone.port = *original.port;
    clone.buffer =
        original.buffer->cloneRebound(*clone.port, clone.recorder());
    ASSERT_NE(clone.buffer, nullptr);
    EXPECT_EQ(clone.buffer->occupancy(),
              original.buffer->occupancy());
    EXPECT_EQ(counters(clone.buffer->stats()),
              counters(original.buffer->stats()));

    // Driving the clone must leave the original untouched.
    Counters before = counters(original.buffer->stats());
    Cycle clone_end = drive(*clone.buffer, t);
    EXPECT_EQ(counters(original.buffer->stats()), before);

    // The same suffix workload replays bit-identically.
    std::size_t mark = original.writes.size();
    Cycle original_end = drive(*original.buffer, t);
    EXPECT_EQ(original_end, clone_end);
    EXPECT_EQ(counters(original.buffer->stats()),
              counters(clone.buffer->stats()));
    EXPECT_EQ(original.buffer->occupancy(),
              clone.buffer->occupancy());
    ASSERT_EQ(original.writes.size() - mark, clone.writes.size());
    for (std::size_t i = mark; i < original.writes.size(); ++i)
        EXPECT_EQ(original.writes[i], clone.writes[i - mark])
            << "write " << i - mark << " diverged after the clone";
}

TEST_P(PolicyMatrix, CloneCapturesInFlightRetirement)
{
    WriteBufferConfig config = makeConfig(GetParam());
    Rig original;
    original.build(config);
    StallStats stalls;
    Cycle t = 0;
    for (unsigned i = 0; i + 1 < config.depth; ++i)
        t = original.buffer->store(Addr(i) * 64, 8, t, stalls) + 1;
    // Advance into the middle of the background write: with a
    // 6-cycle transfer, cycle 12 lands inside both the occupancy
    // retirement chain (starts at 1) and the fixed-rate one
    // (starts at 8).
    original.buffer->advanceTo(12);

    // The write cache retires in the background only under
    // fixed-rate and paced; the write buffer always does here.
    bool expect_in_flight = config.kind == BufferKind::WriteBuffer
        || config.retirementMode == RetirementMode::FixedRate
        || config.retirementMode == RetirementMode::Paced;
    EXPECT_EQ(original.buffer->retirementUnderway(), expect_in_flight);

    Rig clone;
    *clone.port = *original.port;
    clone.buffer =
        original.buffer->cloneRebound(*clone.port, clone.recorder());

    // Both must finish the in-flight write and drain identically.
    original.buffer->advanceTo(40);
    clone.buffer->advanceTo(40);
    Cycle original_done = original.buffer->drainBelow(1, 40);
    Cycle clone_done = clone.buffer->drainBelow(1, 40);
    EXPECT_EQ(original_done, clone_done);
    EXPECT_EQ(original.buffer->occupancy(), 0u);
    EXPECT_EQ(clone.buffer->occupancy(), 0u);
    EXPECT_EQ(counters(original.buffer->stats()),
              counters(clone.buffer->stats()));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyMatrix,
                         ::testing::ValuesIn(allPolicyCases()),
                         policyCaseName);

/** Regression: fixed-rate retirement on the write cache used to be
 *  silently ignored; the shared engine wires it for real. */
TEST(WriteCachePolicy, FixedRateWriteCacheRetiresAutonomously)
{
    WriteBufferConfig config;
    config.kind = BufferKind::WriteCache;
    config.retirementMode = RetirementMode::FixedRate;
    config.fixedRatePeriod = 8;
    config.crossCheck = true;
    Rig rig;
    rig.build(config);

    StallStats stalls;
    rig.buffer->store(0x100, 8, 0, stalls);
    ASSERT_EQ(rig.buffer->occupancy(), 1u);

    rig.buffer->advanceTo(100);
    EXPECT_EQ(rig.buffer->occupancy(), 0u);
    EXPECT_EQ(rig.buffer->stats().retirements, 1u);
    ASSERT_EQ(rig.writes.size(), 1u);
    EXPECT_EQ(rig.writes[0].base, 0x100u);
    EXPECT_EQ(rig.writes[0].start, 8u); // the first rate slot
}

/** Age-timeout now also applies to the write cache. */
TEST(WriteCachePolicy, AgeTimeoutEvictsIdleEntries)
{
    WriteBufferConfig config;
    config.kind = BufferKind::WriteCache;
    config.ageTimeout = 10;
    config.crossCheck = true;
    Rig rig;
    rig.build(config);

    StallStats stalls;
    rig.buffer->store(0x200, 8, 0, stalls);
    rig.buffer->advanceTo(100);
    EXPECT_EQ(rig.buffer->occupancy(), 0u);
    EXPECT_EQ(rig.buffer->stats().retirements, 1u);
    ASSERT_EQ(rig.writes.size(), 1u);
    EXPECT_EQ(rig.writes[0].start, 10u); // allocation + timeout
}

/** The paced trigger drains a burst back-to-back up to the bucket
 *  depth, then caps sustained drain at one write per refill period. */
TEST(PacedPolicy, TokenBucketCapsSustainedDrain)
{
    WriteBufferConfig config;
    config.retirementMode = RetirementMode::Paced;
    config.depth = 6;
    config.highWaterMark = 1;
    config.pacedRefillPeriod = 20;
    config.pacedBurst = 2;
    config.crossCheck = true;
    Rig rig;
    rig.build(config);

    StallStats stalls;
    Cycle t = 0;
    for (unsigned i = 0; i < 4; ++i)
        t = rig.buffer->store(Addr(i) * 64, 8, t, stalls) + 1;
    rig.buffer->advanceTo(200);

    EXPECT_EQ(rig.buffer->occupancy(), 0u);
    EXPECT_EQ(rig.buffer->stats().retirements, 4u);
    ASSERT_EQ(rig.writes.size(), 4u);
    // Two banked tokens drain back-to-back (the second write queues
    // behind the 6-cycle port transfer); the third waits for the
    // refill at one period, the fourth for the next.
    EXPECT_EQ(rig.writes[0].start, 0u);
    EXPECT_EQ(rig.writes[1].start, 6u);
    EXPECT_EQ(rig.writes[2].start, 20u);
    EXPECT_EQ(rig.writes[3].start, 40u);
}

/** Explicit flushes bypass the token bucket: a load hazard must not
 *  be rate-limited by pacing. */
TEST(PacedPolicy, FlushesBypassTheTokenBucket)
{
    WriteBufferConfig config;
    config.retirementMode = RetirementMode::Paced;
    config.depth = 6;
    config.highWaterMark = 6; // background drain never arms
    config.pacedRefillPeriod = 50;
    config.pacedBurst = 1;
    config.crossCheck = true;
    Rig rig;
    rig.build(config);

    StallStats stalls;
    Cycle t = 0;
    for (unsigned i = 0; i < 4; ++i)
        t = rig.buffer->store(Addr(i) * 64, 8, t, stalls) + 1;

    Cycle done = rig.buffer->drainBelow(1, t);
    EXPECT_EQ(rig.buffer->occupancy(), 0u);
    ASSERT_EQ(rig.writes.size(), 4u);
    // Back-to-back port transfers, no refill gaps.
    for (std::size_t i = 1; i < rig.writes.size(); ++i)
        EXPECT_EQ(rig.writes[i].start, rig.writes[i - 1].start + 6);
    EXPECT_LT(done, t + 4 * 6 + 6);
}

} // namespace
} // namespace wbsim::test
