/**
 * @file
 * Fuzzing of the EntryStore sweep kernels inside a whole write
 * buffer: random store, load-probe and hazard traffic through a
 * cross-checking buffer, so every probe, merge-target and victim
 * query asserts kernel-vs-naive-scan agreement inside EntryStore
 * (the same check the policy-crosscheck CI job runs over the
 * ablation binaries with WBSIM_CROSSCHECK=1).
 */

#include <gtest/gtest.h>

#include "wb_test_fixture.hh"

#include "util/random.hh"

namespace wbsim::test
{
namespace
{

/** The fuzzed configuration for one seed: random depth, policies,
 *  and kind. */
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

class SimdCrossCheck : public ::testing::TestWithParam<std::uint64_t>
{
};

/** A cross-checking buffer: EntryStore verifies every kernel answer
 *  against the naive scans itself, so this fuzz just has to drive
 *  traffic through the probe, merge, and victim paths (any
 *  disagreement panics inside the store). */
TEST_P(SimdCrossCheck, KernelsMatchNaiveScansOnEveryQuery)
{
    Rng rng(GetParam() * 104729);
    WriteBufferConfig c = fuzzConfig(rng, GetParam());
    c.crossCheck = true;

    L2Port port;
    WriteBuffer buffer(c, port, [](Addr, unsigned, unsigned, Cycle) {
        return Cycle{6};
    });
    StallStats stalls;
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        now += 1 + rng.nextBelow(8);
        Addr addr = rng.nextBelow(64) * 8;
        switch (rng.nextBelow(4)) {
          case 0:
          case 1:
            now = buffer.store(addr, rng.nextBool(0.5) ? 4 : 8, now,
                               stalls);
            break;
          case 2: {
            buffer.advanceTo(now);
            LoadProbe probe = buffer.probeLoad(addr, 8);
            if (probe.blockHit)
                now = buffer.handleLoadHazard(probe, addr, 8, now).done;
            break;
          }
          default:
            buffer.advanceTo(now);
            break;
        }
    }
    buffer.drainBelow(1, now + 1);
    EXPECT_EQ(buffer.occupancy(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace wbsim::test
