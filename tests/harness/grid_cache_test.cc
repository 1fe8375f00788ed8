/**
 * @file
 * Tests for the grid runner's materialized-trace and warm-state
 * checkpoint caches: every cached data path must reproduce the
 * uncached reference run bit for bit, deterministically, at any
 * thread count; and RunnerOptions must honour its env overrides.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

RunnerOptions
tinyOptions(unsigned threads, bool materialize, bool checkpoints)
{
    RunnerOptions options;
    options.instructions = 12'000;
    options.warmup = 6'000;
    options.threads = threads;
    options.seed = 1;
    options.materialize = materialize;
    options.checkpoints = checkpoints;
    return options;
}

std::vector<BenchmarkProfile>
twoProfiles()
{
    return {spec92::profile("espresso"), spec92::profile("li")};
}

/** The uncached scalar path, run cell by cell. */
ExperimentResults
referenceGrid(const Experiment &exp,
              const std::vector<BenchmarkProfile> &profiles,
              const RunnerOptions &options)
{
    ExperimentResults expected(profiles.size());
    for (std::size_t b = 0; b < profiles.size(); ++b)
        for (const ConfigVariant &variant : exp.variants)
            expected[b].push_back(
                runOne(profiles[b], variant.machine,
                       options.instructions, options.seed,
                       options.warmup));
    return expected;
}

TEST(GridCache, CachedGridMatchesUncachedReferenceBitForBit)
{
    clearGridCaches();
    Experiment exp = figures::figure11();
    auto profiles = twoProfiles();
    RunnerOptions cached = tinyOptions(4, true, true);
    ExperimentResults expected =
        referenceGrid(exp, profiles, cached);

    // Every combination of the two cache layers must agree with the
    // reference path.
    for (bool materialize : {false, true}) {
        for (bool checkpoints : {false, true}) {
            RunnerOptions options =
                tinyOptions(4, materialize, checkpoints);
            ExperimentResults got =
                runExperiment(exp, profiles, options);
            ASSERT_EQ(got, expected)
                << "materialize=" << materialize
                << " checkpoints=" << checkpoints;
        }
    }
}

TEST(GridCache, DeterministicAcrossThreadCountsWithAndWithoutReuse)
{
    Experiment exp = figures::figure11();
    auto profiles = twoProfiles();
    for (bool checkpoints : {false, true}) {
        clearGridCaches();
        ExperimentResults one = runExperiment(
            exp, profiles, tinyOptions(1, true, checkpoints));
        // Second pass at 8 threads reuses whatever the first pass
        // cached; a third pass re-reuses it.
        ExperimentResults eight = runExperiment(
            exp, profiles, tinyOptions(8, true, checkpoints));
        ExperimentResults again = runExperiment(
            exp, profiles, tinyOptions(8, true, checkpoints));
        EXPECT_EQ(one, eight) << "checkpoints=" << checkpoints;
        EXPECT_EQ(one, again) << "checkpoints=" << checkpoints;
    }
}

TEST(GridCache, TracesBuildOncePerBenchmarkAndCheckpointsOncePerCell)
{
    clearGridCaches();
    Experiment exp = figures::figure11();
    auto profiles = twoProfiles();
    const std::size_t cells = profiles.size() * exp.variants.size();

    RunnerOptions options = tinyOptions(4, true, true);
    runExperiment(exp, profiles, options);
    GridCacheStats first = gridCacheStats();
    // One trace per benchmark, shared by every variant; one
    // checkpoint per cell (figure 11 varies l2Latency, which is
    // warm-state-affecting, so no two variants share one).
    EXPECT_EQ(first.traceBuilds, profiles.size());
    EXPECT_EQ(first.traceHits + first.traceBuilds, cells);
    EXPECT_EQ(first.checkpointBuilds, cells);
    EXPECT_EQ(first.checkpointHits, 0u);

    // An identical second sweep touches no builder at all.
    runExperiment(exp, profiles, options);
    GridCacheStats second = gridCacheStats();
    EXPECT_EQ(second.traceBuilds, first.traceBuilds);
    EXPECT_EQ(second.checkpointBuilds, first.checkpointBuilds);
    EXPECT_EQ(second.checkpointHits, cells);
}

TEST(GridCache, ReplicatedRunsUseDistinctSeedsThroughTheCache)
{
    clearGridCaches();
    BenchmarkProfile profile = spec92::profile("espresso");
    MachineConfig machine;
    RunnerOptions options = tinyOptions(4, true, true);
    std::vector<SimResults> runs =
        runReplicated(profile, machine, options, 3);
    ASSERT_EQ(runs.size(), 3u);
    // Different seeds, different workload streams.
    EXPECT_NE(runs[0].cycles, runs[1].cycles);
    EXPECT_EQ(gridCacheStats().traceBuilds, 3u);

    // Replicas must match their uncached equivalents exactly.
    for (unsigned i = 0; i < 3; ++i) {
        SimResults reference =
            runOne(profile, machine, options.instructions,
                   options.seed + i, options.warmup);
        EXPECT_EQ(runs[i], reference) << "replica " << i;
    }
}

TEST(GridCache, TraceIsAdmittedOnItsSecondUseWithoutCheckpoints)
{
    // Without checkpoints, a trace key's first use streams from the
    // generator, its second builds the trace and its third replays
    // it; every run matches the uncached reference.
    clearGridCaches();
    BenchmarkProfile profile = spec92::profile("li");
    MachineConfig machine;
    RunnerOptions options = tinyOptions(1, true, false);
    const SimResults reference =
        runOne(profile, machine, options.instructions, options.seed,
               options.warmup);
    auto expectStats = [](std::size_t streams, std::size_t builds,
                          std::size_t hits) {
        GridCacheStats stats = gridCacheStats();
        EXPECT_EQ(stats.traceStreams, streams);
        EXPECT_EQ(stats.traceBuilds, builds);
        EXPECT_EQ(stats.traceHits, hits);
        EXPECT_EQ(stats.checkpointBuilds, 0u);
    };

    EXPECT_EQ(runOne(profile, machine, options, options.seed), reference);
    expectStats(1, 0, 0);
    EXPECT_EQ(gridCacheStats().cachedBytes, 0u);
    EXPECT_EQ(runOne(profile, machine, options, options.seed), reference);
    expectStats(1, 1, 0);
    EXPECT_GT(gridCacheStats().cachedBytes, 0u);
    EXPECT_EQ(runOne(profile, machine, options, options.seed), reference);
    expectStats(1, 1, 1);

    // clearGridCaches() forgets the sighted keys: the key streams
    // again, as if never seen.
    clearGridCaches();
    EXPECT_EQ(runOne(profile, machine, options, options.seed), reference);
    expectStats(1, 0, 0);

    // A lookup with checkpoints builds on first use, and a later
    // lookup without them finds the trace resident.
    clearGridCaches();
    RunnerOptions warm = tinyOptions(1, true, true);
    EXPECT_EQ(runOne(profile, machine, warm, 5),
              runOne(profile, machine, warm.instructions, 5,
                     warm.warmup));
    GridCacheStats stats = gridCacheStats();
    EXPECT_EQ(stats.traceStreams, 0u);
    EXPECT_EQ(stats.traceBuilds, 1u);
    EXPECT_EQ(stats.checkpointBuilds, 1u);
    runOne(profile, machine, options, 5);
    EXPECT_EQ(gridCacheStats().traceStreams, 0u);
    EXPECT_EQ(gridCacheStats().traceHits, 1u);
    clearGridCaches();
}

/**
 * The CI cross-check fuzz: random-ish machine variants, each run
 * fork-resumed (cached) and from scratch (uncached), compared bit
 * for bit. This runs in every build type, unlike the debug-only
 * shadow check inside runOne.
 */
TEST(GridCacheFuzz, ForkResumedMatchesFromScratchAcrossVariants)
{
    clearGridCaches();
    BenchmarkProfile profile = spec92::profile("gmtry");
    RunnerOptions options = tinyOptions(2, true, true);

    std::vector<MachineConfig> variants;
    for (unsigned depth : {2u, 4u, 16u}) {
        MachineConfig config;
        config.writeBuffer.depth = depth;
        variants.push_back(config);
    }
    {
        MachineConfig config;
        config.perfectL2 = false;
        config.writeBuffer.coalescing = false;
        variants.push_back(config);
    }
    {
        MachineConfig config;
        config.writeBuffer.kind = BufferKind::WriteCache;
        config.writeBuffer.depth = 8;
        variants.push_back(config);
    }

    for (std::uint64_t seed : {1ull, 33ull}) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            SimResults cached =
                runOne(profile, variants[v], options, seed);
            SimResults scratch =
                runOne(profile, variants[v], options.instructions,
                       seed, options.warmup);
            ASSERT_EQ(cached, scratch)
                << "variant " << v << " seed " << seed;
        }
    }
}

TEST(GridCacheBudget, EvictsLruUnderByteBudgetAndStaysCorrect)
{
    clearGridCaches();
    setGridCacheByteBudget(0); // unbounded while measuring
    BenchmarkProfile profile = spec92::profile("espresso");
    MachineConfig machine;
    RunnerOptions options = tinyOptions(1, true, true);

    // Populate 3 distinct (seed -> trace) entries and measure.
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runOne(profile, machine, options, seed);
    GridCacheStats unbounded = gridCacheStats();
    EXPECT_EQ(unbounded.traceBuilds, 3u);
    EXPECT_EQ(unbounded.traceEvictions, 0u);
    EXPECT_EQ(unbounded.budgetBytes, 0u);
    ASSERT_GT(unbounded.cachedBytes, 0u);

    // A budget of roughly one entry forces LRU eviction on refill.
    clearGridCaches();
    setGridCacheByteBudget(unbounded.cachedBytes / 3);
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runOne(profile, machine, options, seed);
    GridCacheStats bounded = gridCacheStats();
    EXPECT_GT(bounded.traceEvictions + bounded.checkpointEvictions,
              0u);
    EXPECT_LE(bounded.cachedBytes, bounded.budgetBytes);
    EXPECT_EQ(bounded.budgetBytes, unbounded.cachedBytes / 3);

    // Evicted-and-rebuilt entries must still reproduce the uncached
    // reference bit for bit.
    SimResults cached = runOne(profile, machine, options, 1);
    SimResults scratch = runOne(profile, machine,
                                options.instructions, 1,
                                options.warmup);
    EXPECT_EQ(cached, scratch);

    setGridCacheByteBudget(0);
    clearGridCaches();
}

TEST(GridCacheBudget, ShrinkingTheBudgetEvictsImmediately)
{
    clearGridCaches();
    setGridCacheByteBudget(0);
    BenchmarkProfile profile = spec92::profile("li");
    MachineConfig machine;
    RunnerOptions options = tinyOptions(1, true, true);
    for (std::uint64_t seed = 1; seed <= 2; ++seed)
        runOne(profile, machine, options, seed);
    GridCacheStats before = gridCacheStats();
    ASSERT_GT(before.cachedBytes, 0u);

    // Setting a budget below residency evicts on the spot.
    setGridCacheByteBudget(1);
    GridCacheStats after = gridCacheStats();
    EXPECT_LE(after.cachedBytes, 1u);
    EXPECT_GT(after.traceEvictions + after.checkpointEvictions, 0u);

    setGridCacheByteBudget(0);
    clearGridCaches();
}

TEST(RunnerOptions, FromEnvironmentHonoursOverrides)
{
    setenv("WBSIM_INSTRUCTIONS", "4242", 1);
    setenv("WBSIM_WARMUP", "99", 1);
    setenv("WBSIM_SEED", "77", 1);
    setenv("WBSIM_THREADS", "3", 1);
    setenv("WBSIM_MATERIALIZE", "0", 1);
    setenv("WBSIM_CHECKPOINTS", "0", 1);
    RunnerOptions options = RunnerOptions::fromEnvironment();
    EXPECT_EQ(options.instructions, 4242u);
    EXPECT_EQ(options.warmup, 99u);
    EXPECT_EQ(options.seed, 77u);
    EXPECT_EQ(options.threads, 3u);
    EXPECT_FALSE(options.materialize);
    EXPECT_FALSE(options.checkpoints);
    unsetenv("WBSIM_INSTRUCTIONS");
    unsetenv("WBSIM_WARMUP");
    unsetenv("WBSIM_SEED");
    unsetenv("WBSIM_THREADS");
    unsetenv("WBSIM_MATERIALIZE");
    unsetenv("WBSIM_CHECKPOINTS");
}

TEST(RunnerOptions, FromEnvironmentDefaults)
{
    unsetenv("WBSIM_INSTRUCTIONS");
    unsetenv("WBSIM_WARMUP");
    unsetenv("WBSIM_SEED");
    unsetenv("WBSIM_THREADS");
    unsetenv("WBSIM_MATERIALIZE");
    unsetenv("WBSIM_CHECKPOINTS");
    RunnerOptions options = RunnerOptions::fromEnvironment();
    EXPECT_EQ(options.instructions, 1'000'000u);
    EXPECT_EQ(options.warmup, 500'000u);
    EXPECT_EQ(options.seed, 1u);
    EXPECT_GE(options.threads, 1u);
    EXPECT_TRUE(options.materialize);
    EXPECT_TRUE(options.checkpoints);
}

TEST(RunnerOptions, WarmupDefaultsToHalfOfOverriddenInstructions)
{
    setenv("WBSIM_INSTRUCTIONS", "8000", 1);
    unsetenv("WBSIM_WARMUP");
    RunnerOptions options = RunnerOptions::fromEnvironment();
    EXPECT_EQ(options.instructions, 8'000u);
    EXPECT_EQ(options.warmup, 4'000u);
    unsetenv("WBSIM_INSTRUCTIONS");
}

} // namespace
} // namespace wbsim
