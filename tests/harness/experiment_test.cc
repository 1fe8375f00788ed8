/**
 * @file
 * Tests for the experiment grid runner and report rendering.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/report.hh"
#include "sim/multicore.hh"
#include "util/random.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

RunnerOptions
tinyOptions(unsigned threads)
{
    RunnerOptions options;
    options.instructions = 20'000;
    options.warmup = 5'000;
    options.threads = threads;
    options.seed = 1;
    return options;
}

TEST(ExperimentRunner, GridShapeMatchesInputs)
{
    Experiment exp = figures::figure11();
    std::vector<BenchmarkProfile> profiles = {
        spec92::profile("espresso"), spec92::profile("li")};
    ExperimentResults results =
        runExperiment(exp, profiles, tinyOptions(2));
    ASSERT_EQ(results.size(), 2u);
    for (const auto &row : results) {
        ASSERT_EQ(row.size(), 3u);
        for (const SimResults &r : row)
            EXPECT_EQ(r.instructions, 20'000u);
    }
    EXPECT_EQ(results[0][0].workload, "espresso");
    EXPECT_EQ(results[1][0].workload, "li");
}

TEST(ExperimentRunner, DeterministicAcrossThreadCounts)
{
    Experiment exp = figures::figure11();
    std::vector<BenchmarkProfile> profiles = {
        spec92::profile("compress")};
    ExperimentResults a = runExperiment(exp, profiles, tinyOptions(1));
    ExperimentResults b = runExperiment(exp, profiles, tinyOptions(4));
    for (std::size_t v = 0; v < a[0].size(); ++v) {
        EXPECT_EQ(a[0][v].cycles, b[0][v].cycles);
        EXPECT_EQ(a[0][v].stalls.totalCycles(),
                  b[0][v].stalls.totalCycles());
    }
}

TEST(ExperimentRunner, WarmupExcludedFromResults)
{
    SimResults with = runOne(spec92::profile("espresso"),
                             figures::baselineMachine(), 20'000, 1,
                             20'000);
    EXPECT_EQ(with.instructions, 20'000u);
}

/**
 * Machine i of a list: the buffer kind, hazard policy and retirement
 * mode cycle with i, so every list of 12 covers all of them; the
 * other axes the item loop branches on are seeded draws.
 */
MachineConfig
listMachine(Rng &rng, std::size_t i)
{
    MachineConfig machine = figures::baselineMachine();
    WriteBufferConfig &wb = machine.writeBuffer;
    const BufferKind kinds[] = {BufferKind::WriteBuffer,
                                BufferKind::WriteCache};
    const LoadHazardPolicy policies[] = {
        LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
        LoadHazardPolicy::FlushItemOnly, LoadHazardPolicy::ReadFromWB};
    const RetirementMode modes[] = {RetirementMode::Occupancy,
                                    RetirementMode::FixedRate,
                                    RetirementMode::Paced};
    wb.kind = kinds[i % 2];
    wb.hazardPolicy = policies[i % 4];
    wb.retirementMode = modes[i % 3];
    wb.depth = static_cast<unsigned>(rng.nextRange(2, 12));
    wb.highWaterMark = static_cast<unsigned>(rng.nextRange(1, wb.depth));
    machine.issueWidth = rng.nextBool(0.4) ? 2 : 1;
    machine.l1WriteAllocate = rng.nextBool(0.3);
    machine.perfectL2 = rng.nextBool(0.5);
    if (!machine.perfectL2)
        machine.l2.sizeBytes = 128 * 1024; // small enough to miss
    if (rng.nextBool(0.5)) {
        machine.perfectICache = false;
        machine.l1i.sizeBytes = 1024; // the code loops miss now and then
    }
    if (rng.nextBool(0.3))
        machine.bubbleProbability = 0.2;
    machine.validate();
    return machine;
}

/** The per-record reference of one cell: runReference, or for a
 *  multi-core machine the per-record schedule over generated
 *  traces. */
SimResults
referenceCell(const BenchmarkProfile &profile,
              const MachineConfig &machine, Count instructions,
              std::uint64_t seed, Count warmup)
{
    if (machine.cores == 1)
        return runReference(profile, machine, instructions, seed, warmup);
    MultiCoreSystem system(machine, MultiCoreSystem::Schedule::PerRecord);
    std::vector<std::unique_ptr<SyntheticSource>> generators;
    std::vector<TraceSource *> sources;
    for (unsigned i = 0; i < system.cores(); ++i) {
        generators.push_back(std::make_unique<SyntheticSource>(
            profile, instructions + warmup, seed + i));
        sources.push_back(generators.back().get());
    }
    return system.run(sources, warmup).aggregate();
}

TEST(RunCells, EveryCellEqualsItsOwnReference)
{
    // Seeded machine lists, each with one 2-core machine at a seeded
    // place, run with and without warmup under every combination of
    // trace cache and checkpoints: sharing one pass over the trace
    // must not change a bit of any machine's results.
    constexpr Count kInstructions = 12'000;
    constexpr std::size_t kMachines = 12;
    const char *const benchmarks[] = {"espresso", "tomcatv", "li"};
    std::size_t bubbles = 0, widths = 0, icaches = 0, allocates = 0,
                l2s = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 7919);
        BenchmarkProfile profile =
            spec92::profile(benchmarks[seed - 1]);
        if (seed == 1)
            profile.barrierFraction = 0.01;
        std::vector<MachineConfig> machines;
        for (std::size_t i = 0; i < kMachines; ++i) {
            machines.push_back(listMachine(rng, i));
            const MachineConfig &m = machines.back();
            bubbles += m.bubbleProbability > 0.0;
            widths += m.issueWidth == 2;
            icaches += !m.perfectICache;
            allocates += m.l1WriteAllocate;
            l2s += !m.perfectL2;
        }
        MachineConfig dual = machines[rng.nextBelow(kMachines)];
        dual.cores = 2;
        dual.validate();
        machines.insert(machines.begin()
                            + std::ptrdiff_t(rng.nextBelow(kMachines)),
                        dual);

        for (Count warmup : {Count{0}, Count{3'000}}) {
            std::vector<SimResults> reference;
            for (const MachineConfig &machine : machines)
                reference.push_back(referenceCell(
                    profile, machine, kInstructions, seed, warmup));
            for (bool materialize : {false, true}) {
                for (bool checkpoints : {false, true}) {
                    RunnerOptions options;
                    options.instructions = kInstructions;
                    options.warmup = warmup;
                    options.materialize = materialize;
                    options.checkpoints = checkpoints;
                    std::vector<SimResults> results =
                        runCells(profile, machines, options, seed);
                    ASSERT_EQ(machines.size(), results.size());
                    for (std::size_t i = 0; i < machines.size(); ++i)
                        EXPECT_TRUE(results[i] == reference[i])
                            << "machine " << i << " ("
                            << machines[i].describe() << "), warmup "
                            << warmup << ", materialize "
                            << materialize << ", checkpoints "
                            << checkpoints;
                }
            }
        }
    }
    EXPECT_TRUE(
        runCells(spec92::profile("li"), {}, tinyOptions(1), 1).empty());
    // The seeds above draw every axis at least once.
    EXPECT_GT(bubbles, 0u);
    EXPECT_GT(widths, 0u);
    EXPECT_GT(icaches, 0u);
    EXPECT_GT(allocates, 0u);
    EXPECT_GT(l2s, 0u);
}

TEST(Report, ContainsBenchmarkRowsAndLegend)
{
    Experiment exp = figures::figure11();
    std::vector<BenchmarkProfile> profiles = {
        spec92::profile("espresso")};
    ExperimentResults results =
        runExperiment(exp, profiles, tinyOptions(1));
    std::ostringstream os;
    printExperimentReport(os, exp, profiles, results);
    std::string out = os.str();
    EXPECT_NE(out.find("fig11"), std::string::npos);
    EXPECT_NE(out.find("espresso"), std::string::npos);
    EXPECT_NE(out.find("3-cycles"), std::string::npos);
    EXPECT_NE(out.find("10-cycles"), std::string::npos);
    EXPECT_NE(out.find("legend:"), std::string::npos);
    EXPECT_NE(out.find("buffer-full"), std::string::npos);
}

TEST(Report, ExtendedColumnsAndCsv)
{
    Experiment exp = figures::figure03();
    std::vector<BenchmarkProfile> profiles = {
        spec92::profile("espresso")};
    ExperimentResults results =
        runExperiment(exp, profiles, tinyOptions(1));
    ReportOptions options;
    options.extended = true;
    options.csv = true;
    options.barChart = false;
    std::ostringstream os;
    printExperimentReport(os, exp, profiles, results, options);
    std::string out = os.str();
    EXPECT_NE(out.find("L1hit%"), std::string::npos);
    EXPECT_NE(out.find("-- csv --"), std::string::npos);
    EXPECT_EQ(out.find("legend:"), std::string::npos);
}

TEST(Report, SummarizeRunMentionsEverything)
{
    SimResults r = runOne(spec92::profile("espresso"),
                          figures::baselineMachine(), 20'000, 1);
    std::string text = summarizeRun(r);
    EXPECT_NE(text.find("espresso"), std::string::npos);
    EXPECT_NE(text.find("CPI"), std::string::npos);
    EXPECT_NE(text.find("T="), std::string::npos);
}

} // namespace
} // namespace wbsim
