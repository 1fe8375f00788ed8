/**
 * @file
 * Differential test of multi-core system checkpoints: over seeded
 * random machines (core count, discipline, buffer kind, retirement
 * mode, hazard policy, a real 128 KB L2, a real I-cache, issue
 * bubbles, write-allocate, short and long warmups), a cell resumed
 * from its system checkpoint must produce exactly the per-core results
 * and bus accounting of a run without checkpoints and of the
 * generator-fed per-record reference, both when the checkpoint is
 * built and when it is hit.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "trace/materialized_trace.hh"
#include "util/random.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

/** One differential case: a machine and its cell. */
struct Case
{
    MachineConfig machine;
    BenchmarkProfile profile;
    std::uint64_t seed = 1;
    Count instructions = 0;
    Count warmup = 0;
};

RunnerOptions
optionsFor(const Case &c, bool checkpoints)
{
    RunnerOptions options;
    options.instructions = c.instructions;
    options.warmup = c.warmup;
    options.threads = 1;
    options.materialize = true;
    options.checkpoints = checkpoints;
    return options;
}

/** The per-record schedule over freshly generated traces. */
MultiCoreResults
perRecordReference(const Case &c)
{
    MultiCoreSystem system(c.machine,
                           MultiCoreSystem::Schedule::PerRecord);
    std::vector<std::unique_ptr<SyntheticSource>> generators;
    std::vector<TraceSource *> sources;
    for (unsigned i = 0; i < system.cores(); ++i) {
        generators.push_back(std::make_unique<SyntheticSource>(
            c.profile, c.instructions + c.warmup, c.seed + i));
        sources.push_back(generators.back().get());
    }
    return system.run(sources, c.warmup);
}

/** The system checkpoint of @p c, built directly. */
MultiCoreSnapshot
warmSnapshot(const Case &c)
{
    MultiCoreSystem system(c.machine);
    std::vector<MaterializedTrace> traces;
    std::vector<std::unique_ptr<MaterializedCursor>> cursors;
    std::vector<TraceSource *> sources;
    traces.reserve(system.cores());
    for (unsigned i = 0; i < system.cores(); ++i) {
        SyntheticSource source(c.profile, c.instructions + c.warmup,
                               c.seed + i);
        traces.push_back(MaterializedTrace::build(source));
        cursors.push_back(
            std::make_unique<MaterializedCursor>(traces.back()));
        sources.push_back(cursors.back().get());
    }
    return system.warmUp(sources, c.warmup);
}

void
expectSame(const MultiCoreResults &got, const MultiCoreResults &want,
           const char *run, const Case &c)
{
    ASSERT_EQ(got.perCore.size(), want.perCore.size()) << run;
    for (std::size_t i = 0; i < got.perCore.size(); ++i) {
        EXPECT_EQ(got.perCore[i], want.perCore[i])
            << run << ", core " << i << ", " << c.profile.name
            << " seed " << c.seed << " warmup " << c.warmup << " on "
            << c.machine.describe();
        EXPECT_EQ(got.bus[i], want.bus[i])
            << run << ", core " << i << ", " << c.machine.describe();
    }
}

/** Run @p c four ways (checkpoint build, checkpoint hit, no
 *  checkpoints, per-record reference) and diff them. */
void
expectResumeExact(const Case &c)
{
    clearGridCaches();
    MultiCoreResults built =
        runMultiCore(c.profile, c.machine, optionsFor(c, true), c.seed);
    GridCacheStats stats = gridCacheStats();
    EXPECT_EQ(stats.checkpointBuilds, 1u);
    EXPECT_EQ(stats.checkpointHits, 0u);
    MultiCoreResults hit =
        runMultiCore(c.profile, c.machine, optionsFor(c, true), c.seed);
    EXPECT_EQ(gridCacheStats().checkpointHits, 1u);
    MultiCoreResults plain = runMultiCore(c.profile, c.machine,
                                          optionsFor(c, false), c.seed);
    MultiCoreResults reference = perRecordReference(c);

    expectSame(built, reference, "checkpoint build", c);
    expectSame(hit, reference, "checkpoint hit", c);
    expectSame(plain, reference, "no checkpoints", c);
    // Guard against a vacuous diff: the measured region uses the bus.
    Count grants = 0;
    for (const BusCoreStats &core : reference.bus)
        grants += core.grants;
    EXPECT_GT(grants, 0u) << c.machine.describe();
    clearGridCaches();
}

/** A machine drawn from @p rng, with the axes it is handed. */
MachineConfig
randomMachine(Rng &rng, unsigned cores, BusDiscipline discipline,
              BufferKind kind, RetirementMode mode,
              LoadHazardPolicy policy)
{
    MachineConfig machine = figures::baselineMachine();
    machine.cores = cores;
    machine.busDiscipline = discipline;
    WriteBufferConfig &wb = machine.writeBuffer;
    wb.kind = kind;
    wb.retirementMode = mode;
    wb.hazardPolicy = policy;
    wb.depth = static_cast<unsigned>(rng.nextRange(2, 12));
    wb.highWaterMark = static_cast<unsigned>(rng.nextRange(1, wb.depth));
    machine.l1WriteAllocate = rng.nextBool(0.3);
    if (rng.nextBool(0.5)) {
        machine.perfectL2 = false;
        machine.l2.sizeBytes = 128 * 1024;
    }
    if (rng.nextBool(0.4)) {
        machine.perfectICache = false;
        machine.l1i.sizeBytes = rng.nextBool(0.5) ? 1024 : 4096;
    }
    if (rng.nextBool(0.3))
        machine.bubbleProbability = rng.nextBool(0.5) ? 0.1 : 0.4;
    machine.validate();
    return machine;
}

TEST(MultiCoreCheckpoint, SeededRandomMachinesResumeExactly)
{
    Rng rng(0xc4ec7901);
    const char *const names[] = {"compress", "espresso", "li",
                                 "tomcatv", "doduc"};
    const RetirementMode modes[] = {RetirementMode::Occupancy,
                                    RetirementMode::FixedRate,
                                    RetirementMode::Paced};
    const LoadHazardPolicy policies[] = {
        LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
        LoadHazardPolicy::FlushItemOnly, LoadHazardPolicy::ReadFromWB};
    std::size_t realL2 = 0, icaches = 0, bubbles = 0, allocates = 0;
    // 24 cases: the case index pins every core count, discipline,
    // buffer kind, retirement mode, hazard policy and warmup length
    // (short or long) at least four times, in varied combinations;
    // the rest is drawn at random.
    for (unsigned n = 0; n < 24; ++n) {
        SCOPED_TRACE(n);
        Case c;
        c.machine = randomMachine(
            rng, 2 + n % 3,
            n % 2 ? BusDiscipline::Priority : BusDiscipline::Fcfs,
            (n / 2) % 2 ? BufferKind::WriteCache
                        : BufferKind::WriteBuffer,
            modes[(n / 4) % 3], policies[(n / 3) % 4]);
        c.profile = spec92::profile(names[rng.nextBelow(5)]);
        c.seed = rng.nextRange(1, 1000);
        c.instructions = 4'000;
        c.warmup = (n / 6) % 2 ? rng.nextRange(3'000, 6'000)
                               : rng.nextRange(1, 500);
        realL2 += !c.machine.perfectL2;
        icaches += !c.machine.perfectICache;
        bubbles += c.machine.bubbleProbability > 0.0;
        allocates += c.machine.l1WriteAllocate;
        expectResumeExact(c);
    }
    EXPECT_GT(realL2, 0u);
    EXPECT_GT(icaches, 0u);
    EXPECT_GT(bubbles, 0u);
    EXPECT_GT(allocates, 0u);
}

TEST(MultiCoreCheckpoint, RealL2AndICacheImagesResumeExactly)
{
    // Every optional state at once: a 128 KB L2 whose warm lines the
    // snapshot must carry, a small real I-cache, bubbles and
    // write-allocate, on 4 cores.
    Rng rng(0x12c4);
    Case c;
    c.machine = randomMachine(rng, 4, BusDiscipline::Fcfs,
                              BufferKind::WriteBuffer,
                              RetirementMode::Occupancy,
                              LoadHazardPolicy::FlushFull);
    c.machine.perfectL2 = false;
    c.machine.l2.sizeBytes = 128 * 1024;
    c.machine.perfectICache = false;
    c.machine.l1i.sizeBytes = 1024;
    c.machine.bubbleProbability = 0.1;
    c.machine.l1WriteAllocate = true;
    c.machine.validate();
    c.profile = spec92::profile("tomcatv");
    c.seed = 7;
    c.instructions = 5'000;
    c.warmup = 5'000;

    MultiCoreSnapshot snap = warmSnapshot(c);
    for (const MultiCoreSnapshot::Core &core : snap.cores) {
        ASSERT_TRUE(core.sim.l2.tags.has_value());
        EXPECT_FALSE(core.sim.l2.tags->lines.empty());
        ASSERT_TRUE(core.sim.l1i.tags.has_value());
        EXPECT_FALSE(core.sim.l1i.tags->lines.empty());
        // Captured at the first boundary past every crossing, far
        // before any core's end.
        EXPECT_GE(core.records, c.warmup);
        EXPECT_LT(core.records, c.warmup + c.instructions);
    }
    expectResumeExact(c);
}

TEST(MultiCoreCheckpoint, CoreThatExhaustsBeforeTheLastCrossingResumes)
{
    // A warmup a few records short of the trace: under priority
    // arbitration with a real L2, the cores' clocks diverge by more
    // than the measured tail, so some core runs dry before the last
    // one crosses, and the snapshot holds its kExhausted clock.
    Case c;
    c.machine = figures::baselineMachine();
    c.machine.cores = 4;
    c.machine.busDiscipline = BusDiscipline::Priority;
    c.machine.perfectL2 = false;
    c.machine.l2.sizeBytes = 128 * 1024;
    c.machine.validate();
    c.profile = spec92::profile("compress");
    c.seed = 3;
    c.instructions = 20;
    c.warmup = 6'000;

    MultiCoreSnapshot snap = warmSnapshot(c);
    const Count length = c.instructions + c.warmup;
    std::size_t exhausted = 0, early = 0;
    for (std::size_t i = 0; i < snap.cores.size(); ++i) {
        if (snap.clocks[i] == BusScheduler::kExhausted) {
            ++exhausted;
            EXPECT_EQ(snap.cores[i].records, length);
        }
        early += snap.cores[i].records > c.warmup;
    }
    EXPECT_GT(exhausted, 0u) << "no core ran dry before the capture";
    EXPECT_LT(exhausted, snap.cores.size());
    EXPECT_GT(early, 0u);
    expectResumeExact(c);
}

} // namespace
} // namespace wbsim
