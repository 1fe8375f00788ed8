/**
 * @file
 * Tests for Simulator::snapshot()/restore(): a run forked from a
 * warm-state snapshot must be bit-for-bit identical to the run that
 * simply kept going, however many times the snapshot is reused, and
 * a snapshot keeps each cache as its valid lines only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kWarmup = 6'000;
constexpr Count kMeasured = 12'000;

MaterializedTrace
makeTrace(const char *benchmark, std::uint64_t seed)
{
    BenchmarkProfile profile = spec92::profile(benchmark);
    SyntheticSource source(profile, kWarmup + kMeasured, seed);
    return MaterializedTrace::build(source);
}

MachineConfig
realisticConfig()
{
    MachineConfig config;
    config.perfectL2 = false;
    config.writeBuffer.depth = 4;
    return config;
}

TEST(SimSnapshot, ForkedRunMatchesContinuedRunBitForBit)
{
    MaterializedTrace trace = makeTrace("espresso", 5);
    MachineConfig config = realisticConfig();

    // The continued run: warm up, reset, snapshot, keep going.
    Simulator continued(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(continued.consume(warm, kWarmup), kWarmup);
    continued.resetStats();
    SimSnapshot snap = continued.snapshot();
    SimResults kept = continued.run(warm);

    // The forked run: a fresh simulator adopts the snapshot and
    // replays the same suffix.
    Simulator forked(config);
    forked.restore(snap);
    MaterializedCursor suffix(trace);
    suffix.seek(kWarmup);
    SimResults resumed = forked.run(suffix);

    EXPECT_EQ(resumed, kept);
}

TEST(SimSnapshot, SnapshotSurvivesRepeatedRestores)
{
    MaterializedTrace trace = makeTrace("li", 9);
    MachineConfig config = realisticConfig();

    Simulator warmer(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(warmer.consume(warm, kWarmup), kWarmup);
    warmer.resetStats();
    SimSnapshot snap = warmer.snapshot();

    SimResults first;
    for (int round = 0; round < 3; ++round) {
        Simulator sim(config);
        sim.restore(snap);
        MaterializedCursor suffix(trace);
        suffix.seek(kWarmup);
        SimResults result = sim.run(suffix);
        if (round == 0)
            first = result;
        else
            EXPECT_EQ(result, first) << "round " << round;
    }
}

TEST(SimSnapshot, RestoreAdoptsClocksAndCounters)
{
    MaterializedTrace trace = makeTrace("compress", 2);
    MachineConfig config; // default machine

    Simulator warmer(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(warmer.consume(warm, kWarmup), kWarmup);
    EXPECT_EQ(warmer.instructions(), kWarmup);
    warmer.resetStats(); // zeroes counters, keeps the warm clock
    SimSnapshot snap = warmer.snapshot();
    EXPECT_EQ(snap.instructions, 0u);
    EXPECT_EQ(snap.cycle, warmer.now());
    EXPECT_GT(snap.cycle, 0u);

    Simulator fresh(config);
    fresh.restore(snap);
    EXPECT_EQ(fresh.now(), warmer.now());
    EXPECT_EQ(fresh.instructions(), 0u);
}

/** A cache's valid lines in array order: (block address, dirty). */
std::vector<std::pair<Addr, bool>>
validLines(const Cache &cache)
{
    std::vector<std::pair<Addr, bool>> lines;
    cache.forEachValidLine(
        [&](Addr addr, bool dirty) { lines.emplace_back(addr, dirty); });
    return lines;
}

struct ForkCase
{
    std::string name;
    std::function<void(MachineConfig &)> configure;
};

void
PrintTo(const ForkCase &fork, std::ostream *os)
{
    *os << fork.name;
}

class SimSnapshotFork : public ::testing::TestWithParam<ForkCase>
{
};

TEST_P(SimSnapshotFork, MidRunForkMatchesContinuedRunBitForBit)
{
    MaterializedTrace trace = makeTrace("compress", 7);
    MachineConfig config = realisticConfig();
    GetParam().configure(config);

    // The continued run, forked mid-run: counters are not reset, and
    // every other valid L1D line is dropped first, so the L1D holds
    // invalid ways: each dropped line's word is zeroed and the less
    // recent lines of its set move up one way to close the gap.
    Simulator continued(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(continued.consume(warm, kWarmup), kWarmup);
    std::vector<std::pair<Addr, bool>> l1d =
        validLines(continued.l1d().tags());
    ASSERT_GT(l1d.size(), 2u);
    for (std::size_t i = 0; i < l1d.size(); i += 2)
        ASSERT_TRUE(continued.l1d().invalidate(l1d[i].first));
    SimSnapshot snap = continued.snapshot();
    ASSERT_TRUE(snap.l2.tags.has_value());
    EXPECT_TRUE(std::any_of(snap.l2.tags->lines.begin(),
                            snap.l2.tags->lines.end(),
                            [](const Cache::Image::Line &line) {
                                return line.dirty;
                            }))
        << "the fork point holds no dirty L2 line";
    SimResults kept = continued.run(warm);

    Simulator forked(config);
    forked.restore(snap);
    MaterializedCursor suffix(trace);
    suffix.seek(kWarmup);
    SimResults resumed = forked.run(suffix);

    EXPECT_EQ(resumed, kept);
    EXPECT_EQ(validLines(forked.l1d().tags()),
              validLines(continued.l1d().tags()));
    EXPECT_EQ(validLines(*forked.l2().tags()),
              validLines(*continued.l2().tags()));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SimSnapshotFork,
    ::testing::Values(
        ForkCase{"L2_128K",
                 [](MachineConfig &c) { c.l2.sizeBytes = 128 * 1024; }},
        ForkCase{"L2_512K",
                 [](MachineConfig &c) { c.l2.sizeBytes = 512 * 1024; }},
        ForkCase{"L2_1M",
                 [](MachineConfig &c) { c.l2.sizeBytes = 1024 * 1024; }},
        ForkCase{"TwoWay",
                 [](MachineConfig &c) {
                     c.l1d.associativity = 2;
                     c.l2 = {256 * 1024, 32, 2};
                 }},
        ForkCase{"FourWay",
                 [](MachineConfig &c) {
                     c.l1d.associativity = 4;
                     c.l2 = {128 * 1024, 32, 4};
                 }},
        ForkCase{"RealICache",
                 [](MachineConfig &c) { c.perfectICache = false; }}),
    [](const ::testing::TestParamInfo<ForkCase> &info) {
        return info.param.name;
    });

TEST(SimSnapshot, RestoreOverAnotherRunLeavesNoStaleLine)
{
    MaterializedTrace trace = makeTrace("espresso", 3);
    MaterializedTrace other = makeTrace("cc1", 11);
    MachineConfig config = realisticConfig();
    config.perfectICache = false;

    Simulator warmer(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(warmer.consume(warm, kWarmup), kWarmup);
    SimSnapshot snap = warmer.snapshot();

    // The target has already run a different trace to the end, so
    // its caches hold lines the snapshot never saw.
    Simulator reused(config);
    MaterializedCursor elsewhere(other);
    reused.run(elsewhere);
    reused.restore(snap);
    EXPECT_EQ(validLines(reused.l1d().tags()),
              validLines(warmer.l1d().tags()));
    EXPECT_EQ(validLines(*reused.l2().tags()),
              validLines(*warmer.l2().tags()));

    MaterializedCursor suffix(trace);
    suffix.seek(kWarmup);
    EXPECT_EQ(reused.run(suffix), warmer.run(warm));
}

TEST(SimSnapshot, ColdL2ImageIsSparse)
{
    MaterializedTrace trace = makeTrace("li", 4);
    MachineConfig config = realisticConfig();
    config.l2.sizeBytes = 1024 * 1024;

    Simulator warmer(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(warmer.consume(warm, kWarmup), kWarmup);
    SimSnapshot snap = warmer.snapshot();
    const std::size_t dense = warmer.l2().tags()->arrayBytes();
    ASSERT_TRUE(snap.l2.tags.has_value());
    EXPECT_GT(snap.l2.tags->lines.size(), 0u);
    EXPECT_LT(snap.l2.tags->heapBytes(), dense * 15 / 100);
    EXPECT_LT(snap.bytes(), dense * 15 / 100);
}

TEST(CacheImage, FullCacheImagesToNoMoreThanItsArray)
{
    const CacheGeometry geometry{4 * 1024, 32, 4};
    Cache full(geometry, "full");
    for (Addr addr = 0; addr < geometry.sizeBytes; addr += 32)
        full.allocate(addr, /*dirty=*/(addr / 32) % 3 == 0);
    ASSERT_EQ(full.validLines(), geometry.sizeBytes / 32);

    Cache::Image image = full.image();
    EXPECT_EQ(image.lines.size(), full.validLines());
    EXPECT_LE(image.heapBytes(), full.arrayBytes());

    // The image restores exactly over unrelated contents: the same
    // lines, then the same LRU victims.
    Cache copy(geometry, "copy");
    for (Addr addr = 0x10000; addr < 0x10000 + 2048; addr += 32)
        copy.allocate(addr, true);
    copy.restore(image);
    EXPECT_EQ(validLines(copy), validLines(full));
    EXPECT_EQ(copy.hits(), full.hits());
    EXPECT_EQ(copy.misses(), full.misses());
    for (Addr addr = 0x20000; addr < 0x20000 + 4096; addr += 96) {
        auto a = full.allocate(addr);
        auto b = copy.allocate(addr);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(a->blockAddr, b->blockAddr);
            EXPECT_EQ(a->dirty, b->dirty);
        }
    }
}

TEST(SimSnapshotDeathTest, RestoreRejectsMismatchedConfig)
{
    MaterializedTrace trace = makeTrace("li", 1);
    MachineConfig config = realisticConfig();
    Simulator warmer(config);
    MaterializedCursor warm(trace);
    warmer.consume(warm, 1'000);
    SimSnapshot snap = warmer.snapshot();

    MachineConfig other = config;
    other.writeBuffer.depth = 8;
    Simulator victim(other);
    EXPECT_DEATH(victim.restore(snap), "different machine config");
}

} // namespace
} // namespace wbsim
