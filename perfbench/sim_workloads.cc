/**
 * @file
 * The two simulation workloads, each run on a single thread:
 *
 *  - paper_grid: the cells of fig04, fig05, fig06, fig08, fig12,
 *    abl05 and abl09 over the 17 SPEC92 profiles through the cached
 *    runOne. Set-up is the cold first pass (every trace and warm
 *    checkpoint built); timed rounds replay the grid with the caches
 *    resident, so a cell is a checkpoint restore plus its run.
 *  - multicore_bus: 2- and 4-core cells under FCFS and
 *    fixed-priority arbitration at depths 4 and 12 through
 *    runMultiCore. Set-up builds every per-core trace; checkpoints do
 *    not apply, so the timed region is the MultiCoreSystem
 *    co-simulation.
 *
 * A round replays every cell once in a seed-fixed order; the timed
 * region runs whole rounds for --seconds (and at least kMinRounds).
 * The end-to-end figures are those of a grid pass at every cell's
 * best time over the rounds: on a shared host a call only ever runs
 * slower than the program allows (a busy neighbour on the physical
 * core, its caches taken), so a cell's fastest call is the steadiest
 * estimate of its cost.
 */

#include <functional>
#include <iostream>
#include <limits>
#include <numeric>

#include "bench.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "workloads/spec92.hh"

namespace perfbench
{

using namespace wbsim;

namespace
{

/** paper_grid run length per cell: the measured run dominates the
 *  restore, and one round of the 493 cells takes about a second. */
constexpr Count kGridInstructions = 100'000;
constexpr Count kGridWarmup = 50'000;

/** multicore_bus run length per core: short enough that one round of
 *  the 136 cells takes about a second, so a run times each cell many
 *  times. */
constexpr Count kBusInstructions = 30'000;
constexpr Count kBusWarmup = 10'000;

/** Timed rounds per untraced run, at least, whatever --seconds asks. */
constexpr std::size_t kMinRounds = 5;

/** Cold set-up passes per untraced run; setup_s is their median. */
constexpr int kSetupPasses = 5;

/** paper_grid cells checked against the uncached runOne. */
constexpr std::size_t kReferenceSamples = 8;

/** Cells the traced run's layer probes simulate directly. */
constexpr std::size_t kProbeCells = 24;

/** The traced run alternates this many untraced and traced rounds. */
constexpr int kTracedPairs = 2;

/** A workload's cells plus its cached and reference entry points. */
template <typename Result> struct SimWorkload
{
    std::vector<GridCell> cells;
    /** The timed entry point (grid caches on). */
    std::function<Result(const GridCell &)> run;
    /** The uncached reference for one cell. */
    std::function<Result(const GridCell &)> reference;
    /** Indices of the cells checked against the reference. */
    std::vector<std::size_t> referenceCells;
};

bool
sameResults(const SimResults &a, const SimResults &b)
{
    return a == b;
}

bool
sameResults(const MultiCoreResults &a, const MultiCoreResults &b)
{
    return a.perCore == b.perCore && a.bus == b.bus
           && a.discipline == b.discipline;
}

/** Append @p r's per-core results to @p out. */
void
appendCores(std::vector<SimResults> &out, const SimResults &r)
{
    out.push_back(r);
}

void
appendCores(std::vector<SimResults> &out, const MultiCoreResults &r)
{
    out.insert(out.end(), r.perCore.begin(), r.perCore.end());
}

/** bus.* counts: zeros for single-core results. */
void
reportBus(Report &report, const std::vector<SimResults> &)
{
    reportBusCounts(report, {});
}

void
reportBus(Report &report, const std::vector<MultiCoreResults> &runs)
{
    reportBusCounts(report, runs);
}

RunnerOptions
cachedOptions(const GridCell &cell)
{
    RunnerOptions options;
    options.instructions = cell.instructions;
    options.warmup = cell.warmup;
    options.threads = 1;
    options.seed = cell.seed;
    options.materialize = true;
    options.checkpoints = true;
    return options;
}

std::string
describe(const GridCell &cell)
{
    return cell.profile.name + " on " + cell.machine.describe();
}

/** Run every cell once, in order; returns the wall seconds. Lowers
 *  each cell's entry of @p bestMs to its call's latency when the call
 *  was faster. Spans go under @p parent when @p spans records. */
template <typename Result>
double
runRound(const SimWorkload<Result> &workload, std::vector<Result> &out,
         std::vector<double> *bestMs, SpanRecorder *spans, int parent)
{
    Clock::time_point roundBegin = Clock::now();
    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
        int span = spans ? spans->begin("harness.run_one", parent, i)
                         : -1;
        Clock::time_point begin = Clock::now();
        out[i] = workload.run(workload.cells[i]);
        if (bestMs)
            (*bestMs)[i] =
                std::min((*bestMs)[i], secondsSince(begin) * 1e3);
        if (spans)
            spans->end(span);
    }
    return secondsSince(roundBegin);
}

/** Compare a round's results with the set-up pass, outside timing. */
template <typename Result>
void
checkRound(const SimWorkload<Result> &workload,
           const std::vector<Result> &got,
           const std::vector<Result> &expected, Report &report)
{
    for (std::size_t i = 0; i < got.size(); ++i) {
        report.attempt();
        if (!sameResults(got[i], expected[i]))
            report.fail("cell " + describe(workload.cells[i])
                        + " differs from its set-up pass");
    }
}

template <typename Result>
void
runSimWorkload(const Args &args, const SimWorkload<Result> &workload,
               ProbeInput probes, Report &report)
{
    const std::size_t n = workload.cells.size();
    setGridCacheByteBudget(0);
    SpanRecorder spans(args.trace);

    // Set-up: cold passes from empty grid caches. The first pass is
    // the reference every later pass and round must reproduce.
    std::vector<Result> reference(n);
    std::vector<double> setupSeconds;
    const int passes = args.trace ? 1 : kSetupPasses;
    for (int pass = 0; pass < passes; ++pass) {
        clearGridCaches();
        std::vector<Result> got(n);
        SpanRecorder::Scope root(spans, "bench.setup_pass");
        setupSeconds.push_back(runRound(workload, pass == 0 ? reference
                                                            : got,
                                        nullptr, &spans, root.id()));
        if (pass > 0)
            checkRound(workload, got, reference, report);
        else
            report.attempt(n);
    }
    std::cerr << "perfbench: " << args.workload << ": " << n
              << " cells, set-up pass " << setupSeconds.front()
              << " s\n";

    std::vector<Result> got(n);
    if (!args.trace) {
        std::vector<double> bestMs(
            n, std::numeric_limits<double>::infinity());
        std::size_t rounds = 0;
        CpuRotation rotation;
        Clock::time_point begin = Clock::now();
        while ((secondsSince(begin) < args.seconds || rounds < kMinRounds)
               && secondsSince(begin) < kMaxTimedSeconds) {
            rotation.next();
            runRound(workload, got, &bestMs, nullptr, -1);
            ++rounds;
            checkRound(workload, got, reference, report);
        }
        double peakRss = peakRssMb();
        double gridMs = std::accumulate(bestMs.begin(), bestMs.end(), 0.0);
        std::cerr << "perfbench: " << args.workload << ": " << rounds
                  << " rounds, " << rounds * n << " cells timed\n";

        for (std::size_t i : workload.referenceCells) {
            report.attempt();
            if (!sameResults(workload.reference(workload.cells[i]),
                             reference[i]))
                report.fail("cell " + describe(workload.cells[i])
                            + " differs from the uncached reference");
        }

        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("cells_per_s", double(n) / (gridMs / 1e3),
                      "cells/s");
        report.metric("p50_ms", quantile(bestMs, 0.50), "ms");
        report.metric("p90_ms", quantile(bestMs, 0.90), "ms");
        report.metric("p99_ms", quantile(bestMs, 0.99), "ms");
        report.metric("peak_rss_mb", peakRss, "MB");
        return;
    }

    // Traced run: a fixed number of rounds, alternating untraced and
    // traced, so the counts repeat exactly and the tracing overhead
    // is measured on the same work.
    double untraced = 0.0, traced = 0.0, covered = 0.0, rootUs = 0.0;
    for (int pair = 0; pair < kTracedPairs; ++pair) {
        untraced += runRound(workload, got, nullptr, nullptr, -1);
        checkRound(workload, got, reference, report);
        int root = spans.begin("bench.round");
        traced += runRound(workload, got, nullptr, &spans, root);
        spans.end(root);
        covered += spans.childCoverageUs(root);
        rootUs += spans.durationUs(root);
        checkRound(workload, got, reference, report);
    }
    reportGridCache(report);

    std::vector<SimResults> cores;
    for (const Result &r : reference)
        appendCores(cores, r);
    reportSimulatedCounts(report, cores);
    reportBus(report, reference);
    probes.exports = cores;
    probeLayers(probes, report, spans);
    reportServeAbsent(report);
    reportTraceCost(report, traced, untraced, covered, rootUs);
    writeTraceFiles(args, spans);
}

/** The first @p count cells of a seed-shuffled copy of @p cells. */
std::vector<GridCell>
sample(std::vector<GridCell> cells, std::size_t count, std::uint64_t seed)
{
    shuffle(cells, seed);
    cells.resize(std::min(count, cells.size()));
    return cells;
}

} // namespace

void
runPaperGrid(const Args &args, Report &report)
{
    SimWorkload<SimResults> workload;
    const Experiment experiments[] = {
        figures::figure04(),          figures::figure05(),
        figures::figure06(),          figures::figure08(),
        figures::figure12(),          figures::ablationWriteCache(),
        figures::ablationICache(),
    };
    for (const Experiment &experiment : experiments)
        for (const ConfigVariant &variant : experiment.variants)
            for (const BenchmarkProfile &profile : spec92::allProfiles())
                workload.cells.push_back({profile, variant.machine,
                                          args.seed, kGridInstructions,
                                          kGridWarmup});
    shuffle(workload.cells, hashCombine(args.seed, 0x67a1d));
    workload.run = [](const GridCell &cell) {
        return runOne(cell.profile, cell.machine, cachedOptions(cell),
                      cell.seed);
    };
    workload.reference = [](const GridCell &cell) {
        return runOne(cell.profile, cell.machine, cell.instructions,
                      cell.seed, cell.warmup);
    };
    for (std::size_t i = 0;
         i < std::min(kReferenceSamples, workload.cells.size()); ++i)
        workload.referenceCells.push_back(i);

    ProbeInput probes;
    probes.cells = sample(workload.cells, kProbeCells,
                          hashCombine(args.seed, 0x9b0be));
    runSimWorkload(args, workload, probes, report);
}

void
runMulticoreBus(const Args &args, Report &report)
{
    SimWorkload<MultiCoreResults> workload;
    for (const BenchmarkProfile &profile : spec92::allProfiles())
        for (unsigned cores : {2u, 4u})
            for (BusDiscipline discipline :
                 {BusDiscipline::Fcfs, BusDiscipline::Priority})
                for (unsigned depth : {4u, 12u}) {
                    MachineConfig machine = figures::baselineMachine();
                    machine.cores = cores;
                    machine.busDiscipline = discipline;
                    machine.writeBuffer.depth = depth;
                    machine.validate();
                    workload.cells.push_back({profile, machine,
                                              args.seed,
                                              kBusInstructions,
                                              kBusWarmup});
                }
    shuffle(workload.cells, hashCombine(args.seed, 0xb05));
    workload.run = [](const GridCell &cell) {
        return runMultiCore(cell.profile, cell.machine,
                            cachedOptions(cell), cell.seed);
    };
    workload.reference = [](const GridCell &cell) {
        RunnerOptions options = cachedOptions(cell);
        options.materialize = false;
        options.checkpoints = false;
        return runMultiCore(cell.profile, cell.machine, options,
                            cell.seed);
    };
    for (std::size_t i = 0; i < workload.cells.size(); ++i)
        workload.referenceCells.push_back(i);

    // Probe the multi-core cells directly, and the same streams on a
    // one-core machine for the single-core sim.* metrics.
    ProbeInput probes;
    probes.multiCells = sample(workload.cells, kProbeCells,
                               hashCombine(args.seed, 0x9b0be));
    for (GridCell cell : probes.multiCells) {
        cell.machine.cores = 1;
        probes.cells.push_back(cell);
    }
    runSimWorkload(args, workload, probes, report);
}

} // namespace perfbench
