/**
 * @file
 * Cross-checks between the observability subsystem and the
 * simulator's own accounting: timeline totals must equal the stall
 * counters in SimResults, metric histograms must conserve stall
 * cycles, attaching a sink must not perturb the simulation, and a
 * multi-core run exports the same bytes on either schedule.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "obs/export.hh"
#include "obs/hooks.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace_event.hh"
#include "sim/event_log.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kInstructions = 30'000;
constexpr Count kWarmup = 10'000;

struct ObservedRun
{
    SimResults results;
    obs::MetricsRegistry metrics;
    obs::Timeline timeline;
    EventLog log{1 << 14};
};

/** Run @p benchmark on @p machine with a full sink attached. */
void
observedRun(ObservedRun &out, const char *benchmark,
            const MachineConfig &machine)
{
    obs::ObsSink sink{&out.metrics, &out.timeline, &out.log};
    out.results = runOne(spec92::profile(benchmark), machine,
                         kInstructions, 1, kWarmup, sink);
}

/** Find a metric's index by name; -1 when absent. */
int
indexOf(const obs::MetricsRegistry &registry, const std::string &name)
{
    for (std::size_t i = 0; i < registry.size(); ++i)
        if (registry.name(i) == name)
            return static_cast<int>(i);
    return -1;
}

/** Sum of all values a histogram accumulated (mean * n, exact when
 *  the sum fits a double, which these cycle counts do). */
double
histogramSum(const obs::MetricsRegistry &registry,
             const std::string &name)
{
    int i = indexOf(registry, name);
    if (i < 0)
        return 0.0;
    const stats::Histogram &h = registry.histogramValue(
        static_cast<std::size_t>(i));
    return h.mean() * static_cast<double>(h.samples());
}

TEST(ObsIntegration, TimelineTotalsMatchStallAccounting)
{
    ObservedRun run;
    observedRun(run, "compress", figures::baselineMachine());
    const SimResults &r = run.results;
    ASSERT_GT(r.stalls.totalCycles(), 0u);

    EXPECT_EQ(run.timeline.total(obs::Channel::BufferFullStall),
              r.stalls.bufferFullCycles);
    EXPECT_EQ(run.timeline.total(obs::Channel::ReadAccessStall),
              r.stalls.l2ReadAccessCycles);
    EXPECT_EQ(run.timeline.total(obs::Channel::HazardStall),
              r.stalls.loadHazardCycles);
    EXPECT_EQ(run.timeline.total(obs::Channel::IFetchStall),
              r.l2IFetchStallCycles);
    EXPECT_EQ(run.timeline.total(obs::Channel::BarrierStall),
              r.barrierStallCycles);
    EXPECT_EQ(run.timeline.total(obs::Channel::Stores), r.stores);
    EXPECT_EQ(run.timeline.total(obs::Channel::WbWords),
              r.wbWordsWritten);
}

TEST(ObsIntegration, FoldedTimelineStillMatchesStallAccounting)
{
    // A timeline small enough that the measured region forces at
    // least two epoch doublings: LOD folding must redistribute, not
    // create or destroy, attributed cycles. Totals are pinned
    // against the simulator's own stall counters.
    obs::MetricsRegistry metrics;
    obs::Timeline timeline(8, 1024); // folds at 8k and 16k cycles
    obs::ObsSink sink{&metrics, &timeline, nullptr};
    SimResults r = runOne(spec92::profile("compress"),
                          figures::baselineMachine(), kInstructions, 1,
                          kWarmup, sink);

    ASSERT_GE(timeline.epochCycles(), 8u * 4)
        << "run too short to force two doublings";
    ASSERT_GT(r.stalls.totalCycles(), 0u);
    EXPECT_EQ(timeline.total(obs::Channel::BufferFullStall),
              r.stalls.bufferFullCycles);
    EXPECT_EQ(timeline.total(obs::Channel::ReadAccessStall),
              r.stalls.l2ReadAccessCycles);
    EXPECT_EQ(timeline.total(obs::Channel::HazardStall),
              r.stalls.loadHazardCycles);
    EXPECT_EQ(timeline.total(obs::Channel::Stores), r.stores);
    EXPECT_EQ(timeline.total(obs::Channel::WbWords),
              r.wbWordsWritten);
}

TEST(ObsIntegration, StallHistogramsConserveCycles)
{
    ObservedRun run;
    observedRun(run, "espresso", figures::baselineMachine());
    const SimResults &r = run.results;

    EXPECT_DOUBLE_EQ(histogramSum(run.metrics,
                                  "sim.stall.buffer_full"),
                     static_cast<double>(r.stalls.bufferFullCycles));
    EXPECT_DOUBLE_EQ(histogramSum(run.metrics, "sim.stall.hazard"),
                     static_cast<double>(r.stalls.loadHazardCycles));
    EXPECT_DOUBLE_EQ(histogramSum(run.metrics, "sim.stall.barrier"),
                     static_cast<double>(r.barrierStallCycles));
    // I-fetch waits share the read-access histogram (both are demand
    // reads blocked behind a write).
    EXPECT_DOUBLE_EQ(histogramSum(run.metrics,
                                  "sim.stall.read_access"),
                     static_cast<double>(r.stalls.l2ReadAccessCycles
                                         + r.l2IFetchStallCycles));
}

TEST(ObsIntegration, BufferMetricsMatchBufferStats)
{
    ObservedRun run;
    observedRun(run, "compress", figures::baselineMachine());
    const SimResults &r = run.results;

    int at_store = indexOf(run.metrics, "wb.occupancy_at_store");
    ASSERT_GE(at_store, 0);
    const stats::Histogram &occ = run.metrics.histogramValue(
        static_cast<std::size_t>(at_store));
    // One occupancy sample per measured store, and its mean is the
    // very number SimResults reports.
    EXPECT_EQ(occ.samples(), r.stores);
    EXPECT_DOUBLE_EQ(occ.mean(), r.wbMeanOccupancy);

    EXPECT_DOUBLE_EQ(histogramSum(run.metrics, "wb.retire_words"),
                     static_cast<double>(r.wbWordsWritten));
}

TEST(ObsIntegration, PortCountersArePublished)
{
    ObservedRun run;
    observedRun(run, "li", figures::baselineMachine());
    int reads = indexOf(run.metrics, "l2_port.reads");
    int busy = indexOf(run.metrics, "l2_port.busy_cycles");
    ASSERT_GE(reads, 0);
    ASSERT_GE(busy, 0);
    EXPECT_GT(run.metrics.counterValue(
                  static_cast<std::size_t>(reads)), 0u);
    EXPECT_GT(run.metrics.counterValue(
                  static_cast<std::size_t>(busy)), 0u);
}

TEST(ObsIntegration, AttachingASinkDoesNotPerturbTheRun)
{
    MachineConfig machine = figures::baselineMachine();
    SimResults plain = runOne(spec92::profile("compress"), machine,
                              kInstructions, 1, kWarmup);
    ObservedRun run;
    observedRun(run, "compress", machine);
    EXPECT_EQ(run.results, plain);
}

TEST(ObsIntegration, SinkAttachesAfterWarmup)
{
    // Metrics must describe the measured region only: the timeline
    // origin sits at (or after) the cycle the warmup ended on, never
    // at cycle 0.
    ObservedRun run;
    observedRun(run, "compress", figures::baselineMachine());
    ASSERT_GT(run.timeline.epochs(), 0u);
    EXPECT_GT(run.timeline.origin(), 0u);
}

TEST(ObsIntegration, RestoreReattachesMetrics)
{
    BenchmarkProfile profile = spec92::profile("espresso");
    SyntheticSource source(profile, kWarmup + kInstructions, 3);
    MaterializedTrace trace = MaterializedTrace::build(source);
    MachineConfig config = figures::baselineMachine();

    Simulator warmer(config);
    MaterializedCursor warm(trace);
    ASSERT_EQ(warmer.consume(warm, kWarmup), kWarmup);
    warmer.resetStats();
    SimSnapshot snap = warmer.snapshot();

    // A fresh simulator restores the snapshot *after* attaching its
    // sink; the restore must re-bind the cloned buffer and port.
    Simulator sim(config);
    obs::MetricsRegistry metrics;
    obs::Timeline timeline;
    sim.attachObs(obs::ObsSink{&metrics, &timeline, nullptr});
    sim.restore(snap);
    MaterializedCursor suffix(trace);
    suffix.seek(kWarmup);
    SimResults r = sim.run(suffix);

    EXPECT_EQ(timeline.total(obs::Channel::Stores), r.stores);
    EXPECT_EQ(timeline.total(obs::Channel::WbWords),
              r.wbWordsWritten);
    int at_store = indexOf(metrics, "wb.occupancy_at_store");
    ASSERT_GE(at_store, 0);
    EXPECT_EQ(metrics.histogramValue(
                  static_cast<std::size_t>(at_store)).samples(),
              r.stores);
}

/** Every export of one observed 2-core run, as bytes. */
struct MultiCoreExports
{
    std::string resultsJson;
    std::string resultsCsv;
    std::string metricsJson;
    std::string metricsCsv;
    std::string chromeTrace;
};

MultiCoreExports
observedMultiCoreRun(MultiCoreSystem::Schedule schedule, bool withLog)
{
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    machine.writeBuffer.depth = 6;
    machine.validate();
    BenchmarkProfile profile = spec92::profile("espresso");

    obs::MetricsRegistry metrics;
    obs::Timeline timeline;
    EventLog log{1 << 14};
    obs::ObsSink sink{&metrics, &timeline, withLog ? &log : nullptr};
    MultiCoreSystem system(machine, schedule);
    for (unsigned i = 0; i < system.cores(); ++i)
        system.attachObs(i, sink);
    system.attachBusTimeline(&timeline);
    SyntheticSource first(profile, kInstructions + kWarmup, 1);
    SyntheticSource second(profile, kInstructions + kWarmup, 2);
    MultiCoreResults results =
        system.run({&first, &second}, kWarmup);

    obs::Provenance provenance;
    provenance.machineFingerprint = machine.stateFingerprint();
    provenance.machine = machine.describe();
    provenance.seed = 1;
    provenance.instructions = kInstructions;
    provenance.warmup = kWarmup;
    MultiCoreExports out;
    std::ostringstream json, csv, metricsJson, metricsCsv, trace;
    obs::writeSimResultsJson(json, results.aggregate(), provenance);
    obs::writeSimResultsCsv(csv, results.perCore);
    obs::writeMetricsJson(metricsJson, metrics, provenance);
    obs::writeMetricsCsv(metricsCsv, metrics);
    obs::writeTraceEventJson(trace, withLog ? &log : nullptr,
                             &timeline, provenance);
    out.resultsJson = json.str();
    out.resultsCsv = csv.str();
    out.metricsJson = metricsJson.str();
    out.metricsCsv = metricsCsv.str();
    out.chromeTrace = trace.str();
    return out;
}

TEST(ObsIntegration, MultiCoreExportsMatchAcrossSchedules)
{
    // A full sink (event log included) keeps the batched system on
    // the per-record schedule; without the log it batches for real.
    // Either way every artifact must match the per-record reference
    // byte for byte.
    for (bool withLog : {true, false}) {
        SCOPED_TRACE(withLog ? "full sink" : "timeline + metrics");
        MultiCoreExports batched = observedMultiCoreRun(
            MultiCoreSystem::Schedule::Batched, withLog);
        MultiCoreExports reference = observedMultiCoreRun(
            MultiCoreSystem::Schedule::PerRecord, withLog);
        EXPECT_EQ(batched.resultsJson, reference.resultsJson);
        EXPECT_EQ(batched.resultsCsv, reference.resultsCsv);
        EXPECT_EQ(batched.metricsJson, reference.metricsJson);
        EXPECT_EQ(batched.metricsCsv, reference.metricsCsv);
        EXPECT_EQ(batched.chromeTrace, reference.chromeTrace);
        EXPECT_NE(batched.chromeTrace.find("bus occupancy"),
                  std::string::npos);
    }
}

} // namespace
} // namespace wbsim
