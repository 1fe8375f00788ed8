/**
 * @file
 * Tests for the MultiCoreSystem and the arbitrated-bus topology:
 * the N=1 bit-identity guarantee across every policy axis, schedule
 * determinism, contention sanity on real workloads, aggregate
 * semantics, and the cache-path equivalence of runMultiCore.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "sim/multicore.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kInstructions = 20'000;
constexpr Count kWarmup = 5'000;
constexpr std::uint64_t kSeed = 7;

/** Uncached runner options (exercise the code paths directly; the
 *  cached paths get their own test below). */
RunnerOptions
uncachedOptions()
{
    RunnerOptions options;
    options.instructions = kInstructions;
    options.warmup = kWarmup;
    options.seed = kSeed;
    options.materialize = false;
    options.checkpoints = false;
    return options;
}

/**
 * The tentpole's defining constraint: a 1-core system run through
 * the bus-arbitrated path reproduces the legacy single-core run bit
 * for bit, on every store-buffer kind x retirement mode x hazard
 * policy combination. No competing requester means every bus grant
 * degenerates to max(earliest, freeAt) — the standalone port rule.
 */
TEST(MultiCoreEquivalence, SingleCoreMatchesLegacyRunBitForBit)
{
    BenchmarkProfile profile = spec92::profile("compress");
    RunnerOptions options = uncachedOptions();

    for (BufferKind kind :
         {BufferKind::WriteBuffer, BufferKind::WriteCache}) {
        for (RetirementMode mode :
             {RetirementMode::Occupancy, RetirementMode::FixedRate,
              RetirementMode::Paced}) {
            for (LoadHazardPolicy policy :
                 {LoadHazardPolicy::FlushFull,
                  LoadHazardPolicy::FlushPartial,
                  LoadHazardPolicy::FlushItemOnly,
                  LoadHazardPolicy::ReadFromWB}) {
                MachineConfig machine = figures::baselineMachine();
                machine.cores = 1;
                machine.writeBuffer.kind = kind;
                machine.writeBuffer.retirementMode = mode;
                machine.writeBuffer.hazardPolicy = policy;
                machine.validate();

                SimResults legacy =
                    runOne(profile, machine, kInstructions, kSeed,
                           kWarmup);
                MultiCoreResults mc =
                    runMultiCore(profile, machine, options, kSeed);
                ASSERT_EQ(mc.perCore.size(), 1u);
                EXPECT_EQ(mc.perCore[0], legacy)
                    << bufferKindName(kind) << "/"
                    << retirementModeName(mode) << "/"
                    << loadHazardPolicyName(policy);
            }
        }
    }
}

TEST(MultiCoreEquivalence, RunOneRoutesTopologyCellsThroughTheBus)
{
    // runOne on a cores>1 machine must return exactly the
    // multi-core aggregate — grids and serve cells treat topology
    // like any other machine axis.
    BenchmarkProfile profile = spec92::profile("espresso");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    RunnerOptions options = uncachedOptions();
    SimResults via_run_one = runOne(profile, machine, options, kSeed);
    SimResults aggregate =
        runMultiCore(profile, machine, options, kSeed).aggregate();
    EXPECT_EQ(via_run_one, aggregate);
}

TEST(MultiCore, ScheduleIsDeterministic)
{
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 3;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults first =
        runMultiCore(profile, machine, options, kSeed);
    MultiCoreResults second =
        runMultiCore(profile, machine, options, kSeed);
    EXPECT_EQ(first.perCore, second.perCore);
    EXPECT_EQ(first.bus, second.bus);
}

TEST(MultiCore, CachedCellMatchesUncachedReference)
{
    BenchmarkProfile profile = spec92::profile("li");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    RunnerOptions cached = uncachedOptions();
    cached.materialize = true;
    MultiCoreResults via_cache =
        runMultiCore(profile, machine, cached, kSeed);
    MultiCoreResults reference =
        runMultiCore(profile, machine, uncachedOptions(), kSeed);
    EXPECT_EQ(via_cache.perCore, reference.perCore);
    EXPECT_EQ(via_cache.bus, reference.bus);
}

TEST(MultiCore, ContentionInflatesStallsAndOccupiesTheBus)
{
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    RunnerOptions options = uncachedOptions();

    machine.cores = 1;
    MultiCoreResults solo =
        runMultiCore(profile, machine, options, kSeed);

    machine.cores = 2;
    MultiCoreResults duo =
        runMultiCore(profile, machine, options, kSeed);
    ASSERT_EQ(duo.perCore.size(), 2u);
    ASSERT_EQ(duo.bus.size(), 2u);

    // Core 0 replays the very workload the solo machine ran (core i
    // seeds with seed + i); sharing the L2 can only delay it.
    EXPECT_EQ(duo.perCore[0].instructions,
              solo.perCore[0].instructions);
    EXPECT_GT(duo.perCore[0].cycles, solo.perCore[0].cycles);
    EXPECT_GT(duo.perCore[0].stalls.l2ReadAccessCycles,
              solo.perCore[0].stalls.l2ReadAccessCycles);

    // Both cores got bus service, and the contention is visible in
    // the arbitration accounting.
    for (const BusCoreStats &stats : duo.bus) {
        EXPECT_GT(stats.grants, 0u);
        EXPECT_GT(stats.busyCycles, 0u);
    }
    EXPECT_GT(duo.bus[0].contendedGrants + duo.bus[1].contendedGrants,
              0u);
    EXPECT_GT(duo.bus[0].waitCycles + duo.bus[1].waitCycles, 0u);
}

TEST(MultiCore, PriorityDisciplineFavorsCoreZero)
{
    // Under fixed priority core 0 never loses an arbitration, so the
    // queueing burden lands on the low-priority core. Wait cycles
    // are the direct witness.
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    machine.busDiscipline = BusDiscipline::Priority;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults results =
        runMultiCore(profile, machine, options, kSeed);
    EXPECT_EQ(results.discipline, BusDiscipline::Priority);
    EXPECT_LT(results.bus[0].waitCycles, results.bus[1].waitCycles);
}

TEST(MultiCore, AggregateSumsCountersAndTakesTheSlowestClock)
{
    BenchmarkProfile profile = spec92::profile("espresso");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 3;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults results =
        runMultiCore(profile, machine, options, kSeed);
    SimResults aggregate = results.aggregate();

    Count instructions = 0, stores = 0, stall_cycles = 0;
    Count slowest = 0;
    for (const SimResults &core : results.perCore) {
        instructions += core.instructions;
        stores += core.stores;
        stall_cycles += core.stalls.totalCycles();
        slowest = std::max(slowest, core.cycles);
    }
    EXPECT_EQ(aggregate.instructions, instructions);
    EXPECT_EQ(aggregate.stores, stores);
    EXPECT_EQ(aggregate.stalls.totalCycles(), stall_cycles);
    EXPECT_EQ(aggregate.cycles, slowest);
}

TEST(MultiCore, AggregateAppliesEachFieldsCombineRule)
{
    // Every stored field k of core i holds scale[i] * k, so a sum
    // reads 15k, a max 7k and core 0's value 3k.
    const Count scale[] = {3, 7, 5};
    MultiCoreResults system;
    for (int i = 0; i < 3; ++i) {
        const Count m = scale[i];
        SimResults r;
        r.workload = std::string("w") + std::to_string(i);
        r.machine = std::string("m") + std::to_string(i);
        r.instructions = m * 1;
        r.cycles = m * 2;
        r.loads = m * 3;
        r.stores = m * 4;
        r.stalls.bufferFullCycles = m * 5;
        r.stalls.bufferFullEvents = m * 6;
        r.stalls.l2ReadAccessCycles = m * 7;
        r.stalls.l2ReadAccessEvents = m * 8;
        r.stalls.loadHazardCycles = m * 9;
        r.stalls.loadHazardEvents = m * 10;
        r.stalls.bufferFullMaxEpisode = m * 11;
        r.stalls.l2ReadAccessMaxEpisode = m * 12;
        r.stalls.loadHazardMaxEpisode = m * 13;
        r.l1LoadHits = m * 14;
        r.l1LoadMisses = m * 15;
        r.l1StoreHits = m * 16;
        r.l1StoreMisses = m * 17;
        r.wbMerges = m * 18;
        r.wbAllocations = m * 19;
        r.wbRetirements = m * 20;
        r.wbFlushes = m * 21;
        r.wbHazards = m * 22;
        r.wbServedLoads = m * 23;
        r.wbWordsWritten = m * 24;
        r.wbEntriesWritten = m * 25;
        r.wbMeanOccupancy = 0.75 * double(m);
        r.l2ReadHits = m * 26;
        r.l2ReadMisses = m * 27;
        r.l2WriteHits = m * 28;
        r.l2WriteMisses = m * 29;
        r.memReads = m * 30;
        r.memWriteBacks = m * 31;
        r.ifetchMisses = m * 32;
        r.l2IFetchStallCycles = m * 33;
        r.barriers = m * 34;
        r.barrierStallCycles = m * 35;
        r.storeFetches = m * 36;
        r.storeFetchCycles = m * 37;
        system.perCore.push_back(r);
    }
    SimResults a = system.aggregate();
    EXPECT_EQ(a.workload, "w0");
    EXPECT_EQ(a.machine, "m0");
    EXPECT_EQ(a.instructions, 15u * 1);
    EXPECT_EQ(a.cycles, 7u * 2);
    EXPECT_EQ(a.loads, 15u * 3);
    EXPECT_EQ(a.stores, 15u * 4);
    EXPECT_EQ(a.stalls.bufferFullCycles, 15u * 5);
    EXPECT_EQ(a.stalls.bufferFullEvents, 15u * 6);
    EXPECT_EQ(a.stalls.l2ReadAccessCycles, 15u * 7);
    EXPECT_EQ(a.stalls.l2ReadAccessEvents, 15u * 8);
    EXPECT_EQ(a.stalls.loadHazardCycles, 15u * 9);
    EXPECT_EQ(a.stalls.loadHazardEvents, 15u * 10);
    EXPECT_EQ(a.stalls.bufferFullMaxEpisode, 7u * 11);
    EXPECT_EQ(a.stalls.l2ReadAccessMaxEpisode, 7u * 12);
    EXPECT_EQ(a.stalls.loadHazardMaxEpisode, 7u * 13);
    EXPECT_EQ(a.l1LoadHits, 15u * 14);
    EXPECT_EQ(a.l1LoadMisses, 15u * 15);
    EXPECT_EQ(a.l1StoreHits, 15u * 16);
    EXPECT_EQ(a.l1StoreMisses, 15u * 17);
    EXPECT_EQ(a.wbMerges, 15u * 18);
    EXPECT_EQ(a.wbAllocations, 15u * 19);
    EXPECT_EQ(a.wbRetirements, 15u * 20);
    EXPECT_EQ(a.wbFlushes, 15u * 21);
    EXPECT_EQ(a.wbHazards, 15u * 22);
    EXPECT_EQ(a.wbServedLoads, 15u * 23);
    EXPECT_EQ(a.wbWordsWritten, 15u * 24);
    EXPECT_EQ(a.wbEntriesWritten, 15u * 25);
    EXPECT_DOUBLE_EQ(a.wbMeanOccupancy, 0.75 * 15 / 3);
    EXPECT_EQ(a.l2ReadHits, 15u * 26);
    EXPECT_EQ(a.l2ReadMisses, 15u * 27);
    EXPECT_EQ(a.l2WriteHits, 15u * 28);
    EXPECT_EQ(a.l2WriteMisses, 15u * 29);
    EXPECT_EQ(a.memReads, 15u * 30);
    EXPECT_EQ(a.memWriteBacks, 15u * 31);
    EXPECT_EQ(a.ifetchMisses, 15u * 32);
    EXPECT_EQ(a.l2IFetchStallCycles, 15u * 33);
    EXPECT_EQ(a.barriers, 15u * 34);
    EXPECT_EQ(a.barrierStallCycles, 15u * 35);
    EXPECT_EQ(a.storeFetches, 15u * 36);
    EXPECT_EQ(a.storeFetchCycles, 15u * 37);
    // The derived rates follow from the combined fields.
    EXPECT_DOUBLE_EQ(a.pctTotalStalls(),
                     100.0 * double(15 * (5 + 7 + 9)) / double(7 * 2));
}

TEST(MultiCore, PerCoreWarmupBoundaryMeasuresTheTail)
{
    // Every core resets statistics at its own warmup boundary, so
    // each measured region covers exactly the post-warmup tail even
    // though the cores cross their boundaries at different cycles.
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    RunnerOptions options = uncachedOptions();
    MultiCoreResults results =
        runMultiCore(profile, machine, options, kSeed);
    for (const SimResults &core : results.perCore)
        EXPECT_EQ(core.instructions, kInstructions);
}

TEST(MultiCore, HeterogeneousCoresKeepTheirOwnConfigs)
{
    // The serve path can build mixed systems: per-core buffer depths
    // must stay with their core.
    MachineConfig shallow = figures::baselineMachine();
    shallow.writeBuffer.depth = 2;
    shallow.writeBuffer.highWaterMark = 1;
    MachineConfig deep = figures::baselineMachine();
    deep.writeBuffer.depth = 12;
    deep.writeBuffer.highWaterMark = 2;
    MultiCoreSystem system(
        std::vector<MachineConfig>{shallow, deep});
    ASSERT_EQ(system.cores(), 2u);

    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource src0(profile, kInstructions, kSeed);
    SyntheticSource src1(profile, kInstructions, kSeed + 1);
    MultiCoreResults results = system.run({&src0, &src1});
    ASSERT_EQ(results.perCore.size(), 2u);
    EXPECT_NE(results.perCore[0].machine, results.perCore[1].machine);
}

TEST(MultiCoreFingerprint, TopologyIsPartOfTheIdentity)
{
    // The grid caches key warm state by fingerprint; a 2-core cell
    // aliasing a 1-core cell would replay the wrong checkpoint.
    MachineConfig solo = figures::baselineMachine();
    solo.cores = 1;
    MachineConfig duo = solo;
    duo.cores = 2;
    EXPECT_NE(solo.stateFingerprint(), duo.stateFingerprint());

    // At cores > 1 the discipline is live machine state...
    MachineConfig duo_priority = duo;
    duo_priority.busDiscipline = BusDiscipline::Priority;
    EXPECT_NE(duo.stateFingerprint(),
              duo_priority.stateFingerprint());

    // ...but solo it is inert and must NOT perturb the fingerprint:
    // every pre-topology cache key and golden fingerprint survives.
    MachineConfig solo_priority = solo;
    solo_priority.busDiscipline = BusDiscipline::Priority;
    EXPECT_EQ(solo.stateFingerprint(),
              solo_priority.stateFingerprint());
}

TEST(MultiCoreFingerprint, DescribeNamesTopologyOnlyWhenPresent)
{
    MachineConfig machine = figures::baselineMachine();
    EXPECT_EQ(machine.describe().find("cores"), std::string::npos);
    machine.cores = 4;
    machine.busDiscipline = BusDiscipline::Priority;
    EXPECT_NE(machine.describe().find("cores=4"), std::string::npos);
    EXPECT_NE(machine.describe().find("bus=priority"),
              std::string::npos);
}

TEST(MultiCoreConfigDeath, CoreCountIsValidated)
{
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 0;
    EXPECT_DEATH(machine.validate(), "core count");
    machine.cores = 65;
    EXPECT_DEATH(machine.validate(), "core count");
}

} // namespace
} // namespace wbsim
