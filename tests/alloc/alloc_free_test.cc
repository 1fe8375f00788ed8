/**
 * @file
 * The hot paths allocate nothing once warm.
 *
 * This binary replaces the global operator new with a counting one.
 * Each test builds and warms its subject, which may allocate freely,
 * then runs a further stretch of the hot path and requires the count
 * not to move: Simulator::consume() over both buffer kinds, the four
 * hazard policies, the three retirement modes, a real L2 and I-cache
 * and the other machine extensions; a multi-core run; a result-store
 * hit; and a dispatch-queue pop.
 *
 * It checks the paths these runs execute, not the static closure of
 * the hot functions: an allocation on a branch no case here reaches
 * goes unseen.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "serve/dispatch_queue.hh"
#include "serve/result_store.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace wbsim
{
namespace
{

constexpr Count kWarmup = 50'000;
constexpr Count kSteady = 100'000;

/** Debug builds cross-check every write-buffer decision against the
 *  naive reference scans (DESIGN.md §9), which allocate by design;
 *  the contract is the production path's. */
#ifdef NDEBUG
constexpr bool kReferenceScans = false;
#else
constexpr bool kReferenceScans = true;
#endif

/** Allocations made while @p body runs. */
template <typename Body>
std::uint64_t
allocationsIn(Body &&body)
{
    const std::uint64_t before = allocations.load();
    body();
    return allocations.load() - before;
}

/** Every valid single-core machine of the grid the hot path serves:
 *  both buffer kinds x the four hazard policies x the three
 *  retirement modes, on a perfect or a real L2 and I-cache, plus one
 *  machine per remaining extension. */
std::vector<MachineConfig>
machines()
{
    std::vector<MachineConfig> out;
    for (BufferKind kind :
         {BufferKind::WriteBuffer, BufferKind::WriteCache})
        for (LoadHazardPolicy hazard :
             {LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
              LoadHazardPolicy::FlushItemOnly,
              LoadHazardPolicy::ReadFromWB})
            for (RetirementMode mode :
                 {RetirementMode::Occupancy, RetirementMode::FixedRate,
                  RetirementMode::Paced})
                for (bool real : {false, true}) {
                    MachineConfig m;
                    m.writeBuffer.kind = kind;
                    m.writeBuffer.hazardPolicy = hazard;
                    m.writeBuffer.retirementMode = mode;
                    m.writeBuffer.depth = 6;
                    m.writeBuffer.highWaterMark = 3;
                    m.perfectL2 = !real;
                    m.perfectICache = !real;
                    out.push_back(m);
                }
    MachineConfig extension;
    extension.perfectL2 = false;
    extension.perfectICache = false;
    auto with = [&](auto change) {
        MachineConfig m = extension;
        change(m);
        out.push_back(m);
    };
    with([](MachineConfig &m) {
        m.writeBuffer.retirementOrder = RetirementOrder::FullestFirst;
    });
    with([](MachineConfig &m) { m.writeBuffer.ageTimeout = 64; });
    with([](MachineConfig &m) { m.writeBuffer.coalescing = false; });
    with([](MachineConfig &m) {
        m.writeBuffer.writePriorityThreshold = 3;
    });
    with([](MachineConfig &m) { m.writeBuffer.wbHitExtraCycles = 2; });
    with([](MachineConfig &m) {
        m.writeBuffer.depth = 1;
        m.writeBuffer.highWaterMark = 1;
    });
    with([](MachineConfig &m) { m.issueWidth = 2; });
    with([](MachineConfig &m) { m.bubbleProbability = 0.1; });
    with([](MachineConfig &m) { m.l1WriteAllocate = true; });
    return out;
}

TEST(AllocFree, SimulatorConsumeOnceWarm)
{
    if (kReferenceScans)
        GTEST_SKIP() << "debug build: reference scans allocate";
    const std::vector<MachineConfig> grid = machines();
    for (const char *benchmark : {"li", "compress"}) {
        BenchmarkProfile profile = spec92::profile(benchmark);
        SyntheticSource generator(profile, kWarmup + kSteady, 1);
        const MaterializedTrace trace =
            MaterializedTrace::build(generator);
        for (const MachineConfig &machine : grid) {
            ASSERT_EQ("", machine.validationError())
                << machine.describe();
            Simulator sim(machine);
            MaterializedCursor cursor(trace);
            ASSERT_EQ(kWarmup, sim.consume(cursor, kWarmup));
            sim.resetStats();
            Count ran = 0;
            EXPECT_EQ(0u, allocationsIn([&] {
                ran = sim.consume(cursor, kSteady);
            })) << benchmark << " on " << machine.describe();
            EXPECT_EQ(kSteady, ran);
        }
    }
}

TEST(AllocFree, SimulatorConsumeFromTheGenerator)
{
    if (kReferenceScans)
        GTEST_SKIP() << "debug build: reference scans allocate";
    BenchmarkProfile profile = spec92::profile("li");
    MachineConfig machine;
    machine.perfectL2 = false;
    machine.perfectICache = false;
    Simulator sim(machine);
    SyntheticSource generator(profile, kWarmup + kSteady, 1);
    ASSERT_EQ(kWarmup, sim.consume(generator, kWarmup));
    EXPECT_EQ(0u,
              allocationsIn([&] { sim.consume(generator, kSteady); }));
}

/** Allocations of one whole multi-core run over traces of
 *  @p length records per core. */
std::uint64_t
multiCoreRunAllocations(const MachineConfig &machine, Count length)
{
    BenchmarkProfile profile = spec92::profile("li");
    std::vector<MaterializedTrace> traces;
    std::vector<std::unique_ptr<MaterializedCursor>> cursors;
    std::vector<TraceSource *> sources;
    traces.reserve(machine.cores);
    for (unsigned i = 0; i < machine.cores; ++i) {
        SyntheticSource generator(profile, length, 1 + i);
        traces.push_back(MaterializedTrace::build(generator));
    }
    for (const MaterializedTrace &trace : traces) {
        cursors.push_back(std::make_unique<MaterializedCursor>(trace));
        sources.push_back(cursors.back().get());
    }
    MultiCoreSystem system(machine);
    MultiCoreResults results;
    return allocationsIn(
        [&] { results = system.run(sources, kWarmup); });
}

TEST(AllocFree, MultiCoreStepsAllocateOnlyAtSetupAndFinish)
{
    if (kReferenceScans)
        GTEST_SKIP() << "debug build: reference scans allocate";
    // A run allocates for its results; its scheduling steps, bus
    // grants included, must not, so a longer run allocates no more.
    for (BusDiscipline discipline :
         {BusDiscipline::Fcfs, BusDiscipline::Priority}) {
        MachineConfig machine;
        machine.cores = 4;
        machine.perfectL2 = false;
        machine.busDiscipline = discipline;
        const std::uint64_t shorter =
            multiCoreRunAllocations(machine, kWarmup + kSteady / 4);
        // Nonzero: the counter sees this binary's allocations.
        EXPECT_LT(0u, shorter);
        EXPECT_EQ(shorter,
                  multiCoreRunAllocations(machine, kWarmup + kSteady))
            << busDisciplineName(discipline);
    }
}

TEST(AllocFree, ResultStoreHit)
{
    serve::ResultStore store(1 << 20, 4);
    serve::CellKey key;
    key.benchmark = "li";
    key.machineFingerprint = 42;
    store.insert(key, std::make_shared<const std::string>("\"token\""));
    ASSERT_NE(nullptr, store.find(key));
    EXPECT_EQ(0u, allocationsIn([&] {
        for (int i = 0; i < 1000; ++i)
            store.find(key);
    }));
}

TEST(AllocFree, DispatchQueuePop)
{
    for (serve::DispatchDiscipline discipline :
         {serve::DispatchDiscipline::Fcfs,
          serve::DispatchDiscipline::Priority}) {
        serve::DispatchQueue queue(1024, discipline);
        int ran = 0;
        std::vector<serve::DispatchJob> jobs(256);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].priority = std::uint32_t(i % 5);
            jobs[i].run = [&ran] { ++ran; };
        }
        ASSERT_TRUE(queue.tryPushBatch(std::move(jobs)));
        serve::DispatchJob job;
        EXPECT_EQ(0u, allocationsIn([&] {
            for (int i = 0; i < 256; ++i)
                if (queue.pop(job))
                    job.run();
        })) << serve::dispatchDisciplineName(discipline);
        EXPECT_EQ(256, ran);
    }
}

} // namespace
} // namespace wbsim
