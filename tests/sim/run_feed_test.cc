/**
 * @file
 * Equivalence tests for the simulator's run-item feed: consuming a
 * MaterializedCursor through nextRuns() (run counts + one record per
 * item) must reproduce the per-record paths bit-for-bit — same
 * cycles, same stall attribution, same buffer traffic — on every
 * profile and on machines that disqualify the fast path.
 */

#include <gtest/gtest.h>

#include "harness/figures.hh"
#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kRecords = 60'000;

void
expectSameResults(const SimResults &a, const SimResults &b,
                  const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.stalls.bufferFullCycles, b.stalls.bufferFullCycles)
        << what;
    EXPECT_EQ(a.stalls.l2ReadAccessCycles, b.stalls.l2ReadAccessCycles)
        << what;
    EXPECT_EQ(a.stalls.loadHazardCycles, b.stalls.loadHazardCycles)
        << what;
    EXPECT_EQ(a.l1LoadHits, b.l1LoadHits) << what;
    EXPECT_EQ(a.l1LoadMisses, b.l1LoadMisses) << what;
    EXPECT_EQ(a.wbMerges, b.wbMerges) << what;
    EXPECT_EQ(a.wbAllocations, b.wbAllocations) << what;
    EXPECT_EQ(a.wbRetirements, b.wbRetirements) << what;
    EXPECT_EQ(a.wbHazards, b.wbHazards) << what;
    EXPECT_EQ(a.wbServedLoads, b.wbServedLoads) << what;
    EXPECT_EQ(a.l2ReadMisses, b.l2ReadMisses) << what;
    EXPECT_EQ(a.memReads, b.memReads) << what;
    EXPECT_EQ(a.barriers, b.barriers) << what;
    EXPECT_EQ(a.barrierStallCycles, b.barrierStallCycles) << what;
}

TEST(RunFeed, MatchesRecordPathsOnEveryProfile)
{
    for (const char *name : {"compress", "tomcatv", "espresso", "sc"}) {
        BenchmarkProfile profile = spec92::profile(name);
        MachineConfig machine = figures::baselineMachine();

        // Reference: the generator feed (record-path runBatch).
        SyntheticSource direct(profile, kRecords, 3);
        Simulator ref(machine);
        SimResults ref_results = ref.run(direct);

        // Run-item feed from a materialized cursor.
        SyntheticSource again(profile, kRecords, 3);
        MaterializedTrace trace = MaterializedTrace::build(again);
        MaterializedCursor cursor(trace);
        Simulator fed(machine);
        SimResults fed_results = fed.run(cursor);
        expectSameResults(fed_results, ref_results, name);

        // Scalar reference: one step() per replayed record.
        MaterializedCursor scalar(trace);
        Simulator stepper(machine);
        TraceRecord record;
        while (scalar.next(record))
            stepper.step(record);
        stepper.drain();
        SimResults step_results = stepper.results(name);
        expectSameResults(fed_results, step_results, name);
    }
}

TEST(RunFeed, BubbleMachineTakesRecordPathAndStillMatches)
{
    // bubbleProbability > 0 draws the bubble RNG once per record, in
    // order: the cursor's native items and the generator's folded
    // items must make the same draw sequence.
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.bubbleProbability = 0.05;

    SyntheticSource direct(profile, kRecords, 7);
    Simulator ref(machine);
    SimResults ref_results = ref.run(direct);

    SyntheticSource again(profile, kRecords, 7);
    MaterializedTrace trace = MaterializedTrace::build(again);
    MaterializedCursor cursor(trace);
    Simulator fed(machine);
    SimResults fed_results = fed.run(cursor);
    expectSameResults(fed_results, ref_results, "bubble");
}

TEST(RunFeed, LimitedRunTakesRecordPathAndStopsExactly)
{
    BenchmarkProfile profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();

    SyntheticSource direct(profile, kRecords, 5);
    Simulator ref(machine);
    SimResults ref_results = ref.run(direct, 10'000);
    EXPECT_EQ(ref_results.instructions, 10'000u);

    SyntheticSource again(profile, kRecords, 5);
    MaterializedTrace trace = MaterializedTrace::build(again);
    MaterializedCursor cursor(trace);
    Simulator fed(machine);
    SimResults fed_results = fed.run(cursor, 10'000);
    EXPECT_EQ(fed_results.instructions, 10'000u);
    expectSameResults(fed_results, ref_results, "limited");
}

} // namespace
} // namespace wbsim
