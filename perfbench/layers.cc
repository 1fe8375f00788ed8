/**
 * @file
 * Layer probes for the traced run: each layer is timed through its
 * own public entry point on the workload's own cells, so a per-layer
 * number can be set against the end-to-end number it feeds.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "bench.hh"
#include "harness/experiment.hh"
#include "obs/export.hh"
#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"

namespace perfbench
{

using namespace wbsim;

namespace
{

/** Timed repetitions per probe. */
constexpr int kProbeReps = 5;

using TraceKey = std::tuple<std::string, std::uint64_t, Count>;

/** Materialized traces the probes share, built by the trace probe. */
using TraceSet = std::map<TraceKey, std::unique_ptr<MaterializedTrace>>;

double
microsSince(Clock::time_point begin)
{
    return secondsSince(begin) * 1e6;
}

/** Every distinct (profile, seed, length) stream the cells replay
 *  (one per core for multi-core cells). */
std::map<TraceKey, BenchmarkProfile>
distinctStreams(const ProbeInput &input)
{
    std::map<TraceKey, BenchmarkProfile> streams;
    auto add = [&](const GridCell &cell, unsigned cores) {
        for (unsigned core = 0; core < cores; ++core)
            streams.emplace(TraceKey{cell.profile.name, cell.seed + core,
                                     cell.instructions + cell.warmup},
                            cell.profile);
    };
    for (const GridCell &cell : input.cells)
        add(cell, 1);
    for (const GridCell &cell : input.multiCells)
        add(cell, cell.machine.cores);
    return streams;
}

/** workloads.* and trace.*: generate, build and decode every stream. */
TraceSet
probeTraces(const ProbeInput &input, Report &report, SpanRecorder &spans,
            int parent)
{
    TraceSet traces;
    double genSeconds = 0.0, buildSeconds = 0.0, decodeSeconds = 0.0;
    Count records = 0;
    std::size_t bytes = 0;
    std::vector<TraceRecord> batch(4096);
    std::uint64_t request = 0;
    for (const auto &[key, profile] : distinctStreams(input)) {
        const auto &[name, seed, length] = key;
        ++request;
        {
            SpanRecorder::Scope span(spans, "workloads.generate", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            SyntheticSource source(profile, length, seed);
            Count n = 0;
            while (std::size_t got =
                       source.nextBatch(batch.data(), batch.size()))
                n += got;
            genSeconds += secondsSince(begin);
            if (n != length)
                report.fail("generator for " + name
                            + " stopped short of its length");
        }
        {
            SpanRecorder::Scope span(spans, "trace.build", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            SyntheticSource source(profile, length, seed);
            auto trace = std::make_unique<MaterializedTrace>(
                MaterializedTrace::build(source));
            buildSeconds += secondsSince(begin);
            records += trace->size();
            bytes += trace->encodedBytes();
            traces.emplace(key, std::move(trace));
        }
        {
            const MaterializedTrace &trace = *traces.at(key);
            SpanRecorder::Scope span(spans, "trace.decode", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            MaterializedCursor cursor(trace);
            Count n = 0;
            while (std::size_t got =
                       cursor.nextBatch(batch.data(), batch.size()))
                n += got;
            decodeSeconds += secondsSince(begin);
            report.attempt();
            if (n != trace.size())
                report.fail("decoded " + std::to_string(n) + " of "
                            + std::to_string(trace.size())
                            + " records of " + name);
        }
    }
    report.metric("workloads.gen_mrec_per_s",
                  genSeconds > 0 ? double(records) / genSeconds / 1e6
                                 : 0.0,
                  "Mrec/s");
    report.metric("trace.build_s", buildSeconds, "s");
    report.metric("trace.bytes_per_rec",
                  records ? double(bytes) / double(records) : 0.0,
                  "B/rec");
    report.metric("trace.decode_mrec_per_s",
                  decodeSeconds > 0 ? double(records) / decodeSeconds
                                          / 1e6
                                    : 0.0,
                  "Mrec/s");
    return traces;
}

RunnerOptions
optionsFor(const GridCell &cell)
{
    RunnerOptions options;
    options.instructions = cell.instructions;
    options.warmup = cell.warmup;
    options.threads = 1;
    options.seed = cell.seed;
    return options;
}

/** sim.* and harness.lookup_us over the single-core cells. */
void
probeSimulator(const ProbeInput &input, const TraceSet &traces,
               Report &report, SpanRecorder &spans, int parent)
{
    double consumeSeconds = 0.0, runSeconds = 0.0;
    Count runInstructions = 0, events = 0;
    std::vector<double> snapshotUs, restoreUs, lookupUs;
    std::uint64_t request = 0;
    for (const GridCell &cell : input.cells) {
        ++request;
        const MaterializedTrace &trace = *traces.at(
            {cell.profile.name, cell.seed,
             cell.instructions + cell.warmup});

        Simulator warm(cell.machine);
        {
            SpanRecorder::Scope span(spans, "sim.consume", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            MaterializedCursor cursor(trace);
            warm.consume(cursor, cell.warmup);
            consumeSeconds += secondsSince(begin);
        }
        warm.resetStats();
        std::unique_ptr<SimSnapshot> snap;
        {
            SpanRecorder::Scope span(spans, "sim.snapshot", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            snap = std::make_unique<SimSnapshot>(warm.snapshot());
            snapshotUs.push_back(microsSince(begin));
        }

        // The direct path (restore + measured run, as runOne does it)
        // interleaved with the same cell through the warm harness;
        // what runOne spends beyond restore + run is its lookup. The
        // lookup is a small difference of two large times, so each
        // side keeps its fastest repetition.
        RunnerOptions options = optionsFor(cell);
        SimResults cached = runOne(cell.profile, cell.machine, options,
                                   cell.seed);
        SimResults direct;
        std::vector<double> restoreReps, runReps, harnessReps;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            Simulator sim(cell.machine);
            {
                SpanRecorder::Scope span(spans, "sim.restore", parent,
                                         request);
                Clock::time_point begin = Clock::now();
                sim.restore(*snap);
                restoreReps.push_back(microsSince(begin));
            }
            MaterializedCursor cursor(trace);
            cursor.seek(cell.warmup);
            {
                SpanRecorder::Scope span(spans, "sim.run", parent,
                                         request);
                Clock::time_point begin = Clock::now();
                direct = sim.run(cursor);
                runReps.push_back(microsSince(begin));
            }
            SpanRecorder::Scope span(spans, "harness.run_one", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            cached = runOne(cell.profile, cell.machine, options,
                            cell.seed);
            harnessReps.push_back(microsSince(begin));
        }
        double restore = *std::min_element(restoreReps.begin(),
                                           restoreReps.end());
        double run = *std::min_element(runReps.begin(), runReps.end());
        double harness = *std::min_element(harnessReps.begin(),
                                           harnessReps.end());
        restoreUs.push_back(median(restoreReps));
        runSeconds += median(runReps) * 1e-6;
        runInstructions += direct.instructions;
        events += direct.loads + direct.stores + direct.wbRetirements;
        lookupUs.push_back(harness - restore - run);
        report.attempt();
        if (!(direct == cached))
            report.fail("direct Simulator run of " + cell.profile.name
                        + " on " + cell.machine.describe()
                        + " differs from runOne");
    }
    report.metric("sim.consume_s", consumeSeconds, "s");
    report.metric("sim.snapshot_us", median(snapshotUs), "us");
    report.metric("sim.restore_us", median(restoreUs), "us");
    report.metric("sim.run_minstr_per_s",
                  runSeconds > 0 ? double(runInstructions) / runSeconds
                                       / 1e6
                                 : 0.0,
                  "Minstr/s");
    report.metric("sim.ns_per_event",
                  events ? runSeconds * 1e9 / double(events) : 0.0,
                  "ns");
    report.metric("harness.lookup_us", median(lookupUs), "us");
}

/** sim.multicore_minstr_per_s and bus.host_ns_per_grant over the
 *  multi-core cells, on pre-built per-core traces. */
void
probeMulticore(const ProbeInput &input, const TraceSet &traces,
               Report &report, SpanRecorder &spans, int parent)
{
    double seconds = 0.0;
    Count instructions = 0, grants = 0;
    std::uint64_t request = 0;
    for (const GridCell &cell : input.multiCells) {
        ++request;
        MultiCoreResults direct;
        std::vector<double> reps;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            std::vector<std::unique_ptr<MaterializedCursor>> cursors;
            std::vector<TraceSource *> sources;
            for (unsigned core = 0; core < cell.machine.cores; ++core) {
                cursors.push_back(std::make_unique<MaterializedCursor>(
                    *traces.at({cell.profile.name, cell.seed + core,
                                cell.instructions + cell.warmup})));
                sources.push_back(cursors.back().get());
            }
            MultiCoreSystem system(cell.machine);
            SpanRecorder::Scope span(spans, "sim.multicore_run", parent,
                                     request);
            Clock::time_point begin = Clock::now();
            direct = system.run(sources, cell.warmup);
            reps.push_back(secondsSince(begin));
        }
        seconds += median(reps);
        instructions += Count(cell.machine.cores)
                        * (cell.instructions + cell.warmup);
        for (const BusCoreStats &core : direct.bus)
            grants += core.grants;

        MultiCoreResults cached = runMultiCore(
            cell.profile, cell.machine, optionsFor(cell), cell.seed);
        report.attempt();
        if (!(direct.perCore == cached.perCore
              && direct.bus == cached.bus))
            report.fail("direct MultiCoreSystem run of "
                        + cell.profile.name + " on "
                        + cell.machine.describe()
                        + " differs from runMultiCore");
    }
    report.metric("sim.multicore_minstr_per_s",
                  seconds > 0 ? double(instructions) / seconds / 1e6
                              : 0.0,
                  "Minstr/s");
    report.metric("bus.host_ns_per_grant",
                  grants ? seconds * 1e9 / double(grants) : 0.0, "ns");
}

/** obs.export_us: writeSimResultsJson per result. */
void
probeExport(const ProbeInput &input, Report &report,
            SpanRecorder &spans, int parent)
{
    std::vector<double> times;
    std::uint64_t request = 0;
    for (const SimResults &results : input.exports) {
        obs::Provenance provenance;
        provenance.machine = results.machine;
        provenance.instructions = results.instructions;
        std::ostringstream os;
        SpanRecorder::Scope span(spans, "obs.export", parent, ++request);
        Clock::time_point begin = Clock::now();
        obs::writeSimResultsJson(os, results, provenance);
        times.push_back(microsSince(begin));
    }
    report.metric("obs.export_us", median(times), "us");
}

} // namespace

void
probeLayers(const ProbeInput &input, Report &report, SpanRecorder &spans)
{
    SpanRecorder::Scope root(spans, "bench.layer_probes");
    TraceSet traces = probeTraces(input, report, spans, root.id());
    probeSimulator(input, traces, report, spans, root.id());
    probeMulticore(input, traces, report, spans, root.id());
    probeExport(input, report, spans, root.id());
}

} // namespace perfbench
