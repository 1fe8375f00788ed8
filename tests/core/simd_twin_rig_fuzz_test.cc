/**
 * @file
 * Twin-rig fuzzing of the vector sweep kernels: the same random
 * operation sequence driven through one rig pinned to the scalar
 * kernels and one rig running the build's best vector level, with
 * every externally visible answer — probe results, completion
 * cycles, stats, and the L2 write stream — asserted identical.
 *
 * A second suite drives a single cross-checking rig at the vector
 * level, so every query additionally asserts kernel-vs-naive-scan
 * agreement inside EntryStore (the same wiring the policy-crosscheck
 * CI job and the WBSIM_SIMD=on/off byte-identity gate rely on).
 *
 * On a scalar-only build (-DWBSIM_SIMD=OFF, or no vector unit) the
 * detected level collapses to Scalar and the twin rigs degenerate to
 * scalar-vs-scalar — still a valid determinism check, never a skip.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wb_test_fixture.hh"

#include "util/random.hh"
#include "util/simd.hh"

namespace wbsim::test
{
namespace
{

/** One buffer plus its private port and write recorder, with its
 *  EntryStore pinned to a given kernel level. */
class LevelRig
{
  public:
    LevelRig(const WriteBufferConfig &config, simd::Level level)
    {
        auto hook = [this](Addr base, unsigned valid, unsigned total,
                           Cycle start) {
            writes.push_back({base, valid, total, start});
            return Cycle{6};
        };
        buffer = std::make_unique<WriteBuffer>(config, port, hook);
        buffer->entryStore().setLevel(level);
    }

    LevelRig(const LevelRig &) = delete;
    LevelRig &operator=(const LevelRig &) = delete;

    L2Port port;
    std::vector<RecordedWrite> writes;
    std::unique_ptr<WriteBuffer> buffer;
    StallStats stalls;
};

/** The fuzzed configuration for one seed: random depth, policies,
 *  and kind, shared by both rigs. */
WriteBufferConfig
fuzzConfig(Rng &rng, std::uint64_t seed)
{
    WriteBufferConfig c;
    c.depth = 2 + static_cast<unsigned>(rng.nextBelow(14));
    c.highWaterMark = 1 + static_cast<unsigned>(rng.nextBelow(c.depth));
    c.hazardPolicy = static_cast<LoadHazardPolicy>(rng.nextBelow(4));
    c.coalescing = rng.nextBool(0.8);
    switch (seed % 3) {
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
    if (seed % 4 == 0)
        c.kind = BufferKind::WriteCache;
    return c;
}

class SimdScalarEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SimdScalarEquivalence, VectorAndScalarKernelsAgree)
{
    Rng rng(GetParam() * 7919);
    WriteBufferConfig c = fuzzConfig(rng, GetParam());

    LevelRig scalar(c, simd::Level::Scalar);
    LevelRig vector(c, simd::detectLevel());

    Cycle now = 0;
    for (int step = 0; step < 3000; ++step) {
        now += 1 + rng.nextBelow(8);
        Addr addr = rng.nextBelow(64) * 8; // small space: collisions
        switch (rng.nextBelow(5)) {
          case 0:
          case 1: { // store
            unsigned size = rng.nextBool(0.5) ? 4 : 8;
            Cycle a =
                scalar.buffer->store(addr, size, now, scalar.stalls);
            Cycle b =
                vector.buffer->store(addr, size, now, vector.stalls);
            ASSERT_EQ(a, b) << "store completion diverged";
            now = a;
            break;
          }
          case 2: { // load probe + hazard handling
            scalar.buffer->advanceTo(now);
            vector.buffer->advanceTo(now);
            LoadProbe pa = scalar.buffer->probeLoad(addr, 8);
            LoadProbe pb = vector.buffer->probeLoad(addr, 8);
            ASSERT_EQ(pa.blockHit, pb.blockHit);
            ASSERT_EQ(pa.wordHit, pb.wordHit);
            ASSERT_EQ(pa.hitSeq, pb.hitSeq);
            if (pa.blockHit) {
                HazardResult ha = scalar.buffer->handleLoadHazard(
                    pa, addr, 8, now);
                HazardResult hb = vector.buffer->handleLoadHazard(
                    pb, addr, 8, now);
                ASSERT_EQ(ha.done, hb.done) << "hazard cost diverged";
                ASSERT_EQ(ha.servedFromBuffer, hb.servedFromBuffer);
                now = ha.done;
            }
            break;
          }
          case 3: // let the engines run
            scalar.buffer->advanceTo(now);
            vector.buffer->advanceTo(now);
            break;
          case 4: { // occasional partial drain
            unsigned target =
                1 + static_cast<unsigned>(rng.nextBelow(c.depth));
            Cycle a = scalar.buffer->drainBelow(target, now);
            Cycle b = vector.buffer->drainBelow(target, now);
            ASSERT_EQ(a, b) << "drain completion diverged";
            now = a;
            break;
          }
        }
        ASSERT_EQ(scalar.buffer->occupancy(),
                  vector.buffer->occupancy());
    }
    scalar.buffer->drainBelow(1, now + 1);
    vector.buffer->drainBelow(1, now + 1);

    // Identical L2 write streams, cycle for cycle.
    ASSERT_EQ(scalar.writes.size(), vector.writes.size());
    for (std::size_t i = 0; i < scalar.writes.size(); ++i) {
        EXPECT_EQ(scalar.writes[i].base, vector.writes[i].base);
        EXPECT_EQ(scalar.writes[i].validWords,
                  vector.writes[i].validWords);
        EXPECT_EQ(scalar.writes[i].start, vector.writes[i].start);
    }
    const StoreBufferStats &sa = scalar.buffer->stats();
    const StoreBufferStats &sb = vector.buffer->stats();
    EXPECT_EQ(sa.merges, sb.merges);
    EXPECT_EQ(sa.allocations, sb.allocations);
    EXPECT_EQ(sa.retirements, sb.retirements);
    EXPECT_EQ(sa.flushes, sb.flushes);
    EXPECT_EQ(sa.hazards, sb.hazards);
    EXPECT_EQ(sa.wbServedLoads, sb.wbServedLoads);
    EXPECT_EQ(sa.wordsWritten, sb.wordsWritten);
    EXPECT_EQ(sa.entriesWritten, sb.entriesWritten);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdScalarEquivalence,
                         ::testing::Range<std::uint64_t>(1, 17));

class SimdCrossCheck : public ::testing::TestWithParam<std::uint64_t>
{
};

/** A single cross-checking rig at the vector level: EntryStore
 *  verifies every kernel answer against the naive scans itself, so
 *  this fuzz just has to drive traffic through the probe, merge, and
 *  victim paths (any disagreement panics inside the store). */
TEST_P(SimdCrossCheck, KernelsMatchNaiveScansOnEveryQuery)
{
    Rng rng(GetParam() * 104729);
    WriteBufferConfig c = fuzzConfig(rng, GetParam());
    c.crossCheck = true;

    LevelRig rig(c, simd::detectLevel());
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        now += 1 + rng.nextBelow(8);
        Addr addr = rng.nextBelow(64) * 8;
        switch (rng.nextBelow(4)) {
          case 0:
          case 1:
            now = rig.buffer->store(addr, rng.nextBool(0.5) ? 4 : 8,
                                    now, rig.stalls);
            break;
          case 2: {
            rig.buffer->advanceTo(now);
            LoadProbe probe = rig.buffer->probeLoad(addr, 8);
            if (probe.blockHit)
                now = rig.buffer
                          ->handleLoadHazard(probe, addr, 8, now)
                          .done;
            break;
          }
          default:
            rig.buffer->advanceTo(now);
            break;
        }
    }
    rig.buffer->drainBelow(1, now + 1);
    EXPECT_EQ(rig.buffer->occupancy(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace wbsim::test
