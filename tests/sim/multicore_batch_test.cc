/**
 * @file
 * Differential test of the batched multi-core schedule against the
 * one-record-per-step reference: over seeded random machines (core
 * count, discipline, buffer kind, hazard policy, retirement mode,
 * issue width, write priority, write-allocate, real I-cache geometry,
 * issue bubbles, warmup, per-core configs), a system whose steps run
 * whole bus-private prefixes must produce exactly the per-core
 * results and bus accounting of the per-record schedule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "harness/figures.hh"
#include "sim/multicore.hh"
#include "trace/materialized_trace.hh"
#include "util/random.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kLength = 6'000;

/** A spec92 profile that also issues memory barriers (§2.2). */
BenchmarkProfile
barrierProfile()
{
    BenchmarkProfile profile = spec92::profile("espresso");
    profile.barrierFraction = 0.01;
    return profile;
}

/** One seeded draw of every per-core machine axis. */
MachineConfig
randomMachine(Rng &rng)
{
    MachineConfig machine = figures::baselineMachine();
    WriteBufferConfig &wb = machine.writeBuffer;
    wb.kind = rng.nextBool(0.5) ? BufferKind::WriteBuffer
                                : BufferKind::WriteCache;
    wb.depth = static_cast<unsigned>(rng.nextRange(2, 12));
    wb.highWaterMark = static_cast<unsigned>(rng.nextRange(1, wb.depth));
    const RetirementMode modes[] = {RetirementMode::Occupancy,
                                    RetirementMode::FixedRate,
                                    RetirementMode::Paced};
    wb.retirementMode = modes[rng.nextBelow(3)];
    const LoadHazardPolicy policies[] = {
        LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
        LoadHazardPolicy::FlushItemOnly, LoadHazardPolicy::ReadFromWB};
    wb.hazardPolicy = policies[rng.nextBelow(4)];
    wb.writePriorityThreshold = rng.nextBool(0.3)
        ? static_cast<unsigned>(rng.nextRange(1, wb.depth))
        : 0;
    machine.issueWidth = rng.nextBool(0.3) ? 2 : 1;
    machine.l1WriteAllocate = rng.nextBool(0.3);
    machine.perfectL2 = rng.nextBool(0.7);
    if (!machine.perfectL2)
        machine.l2.sizeBytes = 128 * 1024; // small enough to miss
    if (rng.nextBool(0.4)) {
        machine.perfectICache = false;
        const std::uint64_t lines[] = {16, 32, 64};
        machine.l1i.lineBytes = lines[rng.nextBelow(3)];
        machine.l1i.associativity = rng.nextBool(0.5) ? 2 : 1;
        // 1K misses often enough that fetch misses land inside
        // NonMem runs and cut a core's private prefix there.
        machine.l1i.sizeBytes = rng.nextBool(0.5) ? 1024 : 4096;
    }
    if (rng.nextBool(0.3))
        machine.bubbleProbability = rng.nextBool(0.5) ? 0.1 : 0.4;
    machine.validate();
    return machine;
}

/** Everything one differential case needs. */
struct Case
{
    std::vector<MachineConfig> configs;
    BenchmarkProfile profile;
    std::uint64_t seed = 1;
    Count warmup = 0;
    /** Feed the batched system materialized traces (native run
     *  items) instead of generators (folded nextBatch records). */
    bool materialized = false;

    std::string
    describe() const
    {
        std::ostringstream os;
        os << profile.name << " seed=" << seed << " warmup=" << warmup
           << (materialized ? " materialized" : " generated");
        for (const MachineConfig &config : configs)
            os << "\n  " << config.describe();
        return os.str();
    }
};

MultiCoreResults
runCase(const Case &c, MultiCoreSystem::Schedule schedule,
        bool materialized)
{
    MultiCoreSystem system(c.configs, schedule);
    std::vector<std::unique_ptr<SyntheticSource>> generators;
    std::vector<MaterializedTrace> traces;
    std::vector<std::unique_ptr<MaterializedCursor>> cursors;
    std::vector<TraceSource *> sources;
    traces.reserve(c.configs.size());
    for (std::size_t i = 0; i < c.configs.size(); ++i) {
        generators.push_back(std::make_unique<SyntheticSource>(
            c.profile, kLength, c.seed + i));
        if (materialized) {
            traces.push_back(MaterializedTrace::build(*generators[i]));
            cursors.push_back(
                std::make_unique<MaterializedCursor>(traces.back()));
            sources.push_back(cursors.back().get());
        } else {
            sources.push_back(generators[i].get());
        }
    }
    return system.run(sources, c.warmup);
}

/** Diff the batched schedule against the per-record reference (the
 *  reference is always generator-fed, one record per step). */
void
expectSameAsPerRecord(const Case &c)
{
    MultiCoreResults batched =
        runCase(c, MultiCoreSystem::Schedule::Batched, c.materialized);
    MultiCoreResults reference =
        runCase(c, MultiCoreSystem::Schedule::PerRecord, false);
    ASSERT_EQ(batched.perCore.size(), reference.perCore.size());
    for (std::size_t i = 0; i < batched.perCore.size(); ++i) {
        EXPECT_EQ(batched.perCore[i], reference.perCore[i])
            << "core " << i << " of " << c.describe();
        EXPECT_EQ(batched.bus[i], reference.bus[i])
            << "core " << i << " of " << c.describe();
    }
    // Guard against a vacuous diff: the workload must use the bus.
    Count grants = 0;
    for (const BusCoreStats &core : reference.bus)
        grants += core.grants;
    EXPECT_GT(grants, 0u) << c.describe();
}

/** A random case whose core count, discipline, feed, warmup and
 *  per-core configs are drawn from @p rng. */
Case
randomCase(Rng &rng, const std::vector<BenchmarkProfile> &profiles)
{
    Case c;
    unsigned cores = static_cast<unsigned>(rng.nextRange(2, 4));
    BusDiscipline discipline = rng.nextBool(0.5)
        ? BusDiscipline::Fcfs
        : BusDiscipline::Priority;
    bool heterogeneous = rng.nextBool(0.4);
    MachineConfig shared = randomMachine(rng);
    for (unsigned i = 0; i < cores; ++i) {
        MachineConfig machine =
            heterogeneous && i > 0 ? randomMachine(rng) : shared;
        machine.cores = cores;
        machine.busDiscipline = discipline;
        c.configs.push_back(machine);
    }
    c.profile = profiles[rng.nextBelow(profiles.size())];
    c.seed = rng.nextRange(1, 1000);
    c.warmup = rng.nextBool(0.5) ? rng.nextRange(1, kLength / 2) : 0;
    c.materialized = rng.nextBool(0.5);
    return c;
}

std::vector<BenchmarkProfile>
caseProfiles()
{
    std::vector<BenchmarkProfile> profiles;
    for (const char *name : {"compress", "espresso", "li", "tomcatv",
                             "doduc"})
        profiles.push_back(spec92::profile(name));
    profiles.push_back(barrierProfile());
    return profiles;
}

TEST(MultiCoreBatch, SeededRandomMachinesMatchThePerRecordSchedule)
{
    Rng rng(0x5eedba7c4);
    std::vector<BenchmarkProfile> profiles = caseProfiles();
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(trial);
        expectSameAsPerRecord(randomCase(rng, profiles));
    }
}

TEST(MultiCoreBatch, EveryAxisValueMatchesThePerRecordSchedule)
{
    // Pin each axis value at least once, the rest drawn at random, so
    // coverage never depends on the seed.
    Rng rng(0xa11a7e5);
    std::vector<BenchmarkProfile> profiles = caseProfiles();
    auto pinned = [&](auto &&pin) {
        Case c = randomCase(rng, profiles);
        for (MachineConfig &machine : c.configs) {
            pin(machine);
            machine.validate();
        }
        return c;
    };
    for (unsigned cores : {2u, 3u, 4u}) {
        for (BusDiscipline discipline :
             {BusDiscipline::Fcfs, BusDiscipline::Priority}) {
            Case c = pinned([](MachineConfig &) {});
            MachineConfig machine = c.configs.front();
            machine.cores = cores;
            machine.busDiscipline = discipline;
            c.configs.assign(cores, machine);
            expectSameAsPerRecord(c);
        }
    }
    for (BufferKind kind :
         {BufferKind::WriteBuffer, BufferKind::WriteCache})
        for (LoadHazardPolicy policy :
             {LoadHazardPolicy::FlushFull,
              LoadHazardPolicy::FlushPartial,
              LoadHazardPolicy::FlushItemOnly,
              LoadHazardPolicy::ReadFromWB})
            expectSameAsPerRecord(pinned([&](MachineConfig &m) {
                m.writeBuffer.kind = kind;
                m.writeBuffer.hazardPolicy = policy;
            }));
    for (RetirementMode mode :
         {RetirementMode::Occupancy, RetirementMode::FixedRate,
          RetirementMode::Paced})
        expectSameAsPerRecord(pinned([&](MachineConfig &m) {
            m.writeBuffer.retirementMode = mode;
        }));
    for (unsigned width : {1u, 2u})
        for (bool allocate : {false, true})
            for (unsigned threshold : {0u, 1u})
                expectSameAsPerRecord(pinned([&](MachineConfig &m) {
                    m.issueWidth = width;
                    m.l1WriteAllocate = allocate;
                    m.writeBuffer.writePriorityThreshold = threshold;
                }));
    for (Count warmup : {Count{0}, Count{1}, kLength / 3}) {
        Case c = pinned([](MachineConfig &) {});
        c.warmup = warmup;
        expectSameAsPerRecord(c);
    }
    Case barriers = pinned([](MachineConfig &) {});
    barriers.profile = barrierProfile();
    for (bool materialized : {false, true}) {
        barriers.materialized = materialized;
        expectSameAsPerRecord(barriers);
    }
}

TEST(MultiCoreBatch, ICacheAndBubbleMachinesMatchThePerRecordSchedule)
{
    // A real I-cache makes fetch misses bus-visible and issue bubbles
    // draw the RNG per record; both run batched, alone and mixed with
    // perfect-I-cache cores, on the reference's system schedule.
    Rng rng(0xfa11bac);
    MachineConfig icache = randomMachine(rng);
    icache.perfectICache = false;
    icache.l1i = CacheGeometry{1024, 16, 1};
    MachineConfig bubbles = randomMachine(rng);
    bubbles.perfectICache = true;
    bubbles.bubbleProbability = 0.1;
    MachineConfig both = icache;
    both.bubbleProbability = 0.4;
    MachineConfig plain = randomMachine(rng);
    plain.perfectICache = true;
    plain.bubbleProbability = 0.0;
    for (const std::vector<MachineConfig> &configs :
         {std::vector<MachineConfig>{icache, icache},
          std::vector<MachineConfig>{bubbles, bubbles, bubbles},
          std::vector<MachineConfig>{both, both},
          std::vector<MachineConfig>{plain, icache, bubbles, both}}) {
        Case c;
        c.configs = configs;
        for (MachineConfig &machine : c.configs) {
            machine.cores = static_cast<unsigned>(configs.size());
            machine.validate();
        }
        c.profile = spec92::profile("compress");
        c.seed = 11;
        c.warmup = 1'000;
        for (bool materialized : {false, true}) {
            c.materialized = materialized;
            expectSameAsPerRecord(c);
        }
    }
}

TEST(MultiCoreBatch, PrivatePrefixStopsAtAnICacheMissInsideARun)
{
    // 16 B I-cache lines hold four instructions, so a 40-record run
    // from pc 4 crosses into a cold line at pc 16, 32, ...: each
    // prefix stops before that fetch, mid-run, and stepFront() runs
    // the missing NonMem record (at the last pc + 4) alone.
    MachineConfig machine = figures::baselineMachine();
    machine.perfectICache = false;
    machine.l1i = CacheGeometry{1024, 16, 1};
    Simulator sim(machine);
    TraceRun item{40, TraceRecord::load(0x1000, 8, 0x200)};
    const Count none = ~Count{0};

    EXPECT_EQ(sim.runPrivatePrefix(&item, 1, none), 0u);
    EXPECT_EQ(sim.instructions(), 0u) << "pc 4 misses the cold cache";
    EXPECT_FALSE(sim.stepFront(item));
    EXPECT_EQ(item.nonMemBefore, 39u);
    EXPECT_EQ(sim.runPrivatePrefix(&item, 1, none), 0u);
    EXPECT_EQ(sim.instructions(), 3u) << "pcs 8 and 12 hit";
    EXPECT_EQ(item.nonMemBefore, 37u) << "stopped before pc 16";

    // Run the rest: misses at every line start, then the load, whose
    // own fetch (pc 0x200) misses too.
    Count steps = 0;
    while (!sim.stepFront(item)) {
        sim.runPrivatePrefix(&item, 1, none);
        ++steps;
    }
    EXPECT_EQ(sim.instructions(), 41u);
    EXPECT_EQ(steps, 10u) << "one visible step per new line, pc 16-160";
    SimResults r = sim.results("prefix");
    EXPECT_EQ(r.ifetchMisses, 12u);

    // The same records, one step() each.
    Simulator reference(machine);
    for (Addr pc = 4; pc <= 160; pc += 4)
        reference.step(TraceRecord::nonMem(pc));
    reference.step(item.rec);
    EXPECT_EQ(reference.results("prefix"), r);
}

} // namespace
} // namespace wbsim
