/**
 * @file
 * The performance-regression gate: times the write-buffer hot paths
 * (store merge/scatter, load probe) at the paper's deepest
 * configuration, end-to-end simulator throughput, and a Figure 3
 * replay, then emits `BENCH_core.json` so every PR records a perf
 * trajectory (see EXPERIMENTS.md "Performance tracking").
 *
 * Unlike the Google-benchmark micros this binary owns its output
 * format: a small, stable JSON file that CI uploads as an artifact
 * and humans diff across commits. Environment knobs:
 *
 *   WBSIM_PERF_SMOKE=1   short run (CI smoke; numbers still emitted)
 *   WBSIM_PERF_OUT=path  output file (default BENCH_core.json)
 *
 * Beyond the wall-clock lanes, the gate carries a *tail* lane: a
 * fixed, deterministic simulation whose stall-episode p99s and
 * episode counts are compared against the committed baseline when
 * WBSIM_PERF_BASELINE points at one. Tail regressions fail the gate
 * even when the means are flat (DESIGN.md §11). Extra knobs:
 *
 *   WBSIM_PERF_BASELINE=path  committed BENCH_core.json to gate
 *                             against (off when unset)
 *   WBSIM_TAIL_INJECT=pct     inflate the measured tail by pct%
 *                             (proves the gate trips; tests only)
 *   WBSIM_TAIL_ONLY=1         run just the tail lane (fast ctest)
 *
 * The SoA/vectorization work added a *speedup* gate on top: the
 * `sim_simd` lane (simulator fed run items from a materialized
 * trace) must stay >= 3x the pre-SoA `sim_baseline` rate, and
 * `trace_replay_runs` (run-item decode) >= 2.5x the pre-SoA
 * `trace_replay` rate. The pre-SoA reference rates ride along in the
 * baseline file's `speedup_baseline` block, which this binary copies
 * forward into every file it writes, so regenerating BENCH_core.json
 * never moves the gate. A baseline with a `results` list but no such
 * block fails in every mode: the reference is never re-derived from
 * the current code's own lanes. Wall-clock ratios are only meaningful on a quiet
 * machine at full length, so smoke runs report them without gating.
 * With a baseline set, every lane it records must also run here: a
 * renamed lane fails the gate instead of switching its check off.
 *
 * The lanes are one table (laneTable), run in order. Every lane also
 * records `sim_simd_ratio`, its rate over this run's sim_simd rate,
 * which stays comparable across host phases when raw rates do not.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "core/write_buffer.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "mem/l2_port.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "serve/wire.hh"
#include "sim/event_log.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "util/options.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace
{

using namespace wbsim;

/** One emitted measurement. */
struct GateResult
{
    std::string name;
    double opsPerSec = 0.0;     //!< primary rate (ops, instr, ...)
    std::uint64_t iterations = 0;
    double seconds = 0.0;
    /** Simulated cycles per wall-clock second (sim benches only). */
    double cyclesPerSec = 0.0;
    /** opsPerSec over this run's sim_simd rate, a host-speed
     *  normalizer that compares across runs when raw rates do not. */
    double simSimdRatio = 0.0;
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** The rates of @p ops operations (and @p cycles simulated cycles)
 *  done in @p seconds. */
GateResult
rateOf(std::uint64_t ops, double seconds, Count cycles = 0)
{
    GateResult r;
    r.iterations = ops;
    r.seconds = seconds;
    if (seconds > 0.0) {
        r.opsPerSec = static_cast<double>(ops) / seconds;
        r.cyclesPerSec = static_cast<double>(cycles) / seconds;
    }
    return r;
}

/**
 * Time @p body(iterations), doubling the iteration count until the
 * run lasts at least @p min_seconds, and record the final rate.
 */
template <typename Body>
GateResult
timeLoop(double min_seconds, Body &&body)
{
    std::uint64_t iterations = 1024;
    for (;;) {
        double start = now();
        body(iterations);
        double elapsed = now() - start;
        if (elapsed >= min_seconds || iterations >= (1ull << 34))
            return rateOf(iterations, elapsed);
        // Aim straight for the target with one final doubling pass.
        iterations *= 2;
        if (elapsed > 0.0) {
            auto needed = static_cast<std::uint64_t>(
                1.3 * min_seconds / elapsed
                * static_cast<double>(iterations / 2));
            iterations = std::max(iterations, needed);
        }
    }
}

/**
 * The best of @p reps timed runs of @p run, each doing @p ops
 * operations. The clock starts before run(stop) and stops when run
 * sets @p stop, so what run builds is torn down outside the timed
 * region; run returns the simulated cycles. Lanes that back a gate
 * keep the best of several runs so the threshold trips on code
 * regressions, not on a scheduler hiccup.
 */
template <typename Run>
GateResult
bestOf(std::uint64_t ops, int reps, Run &&run)
{
    GateResult best;
    best.iterations = ops;
    for (int rep = 0; rep < reps; ++rep) {
        double start = now();
        double stop = start;
        Count cycles = run(stop);
        GateResult r = rateOf(ops, stop - start, cycles);
        if (r.opsPerSec > best.opsPerSec)
            best = r;
    }
    return best;
}

WriteBufferConfig
gateConfig(unsigned depth)
{
    WriteBufferConfig config;
    config.depth = depth;
    config.highWaterMark = 2;
    return config;
}

/** The 12-deep gate buffer over a fixed 6-cycle L2 write. */
struct GateBuffer
{
    L2Port port;
    WriteBuffer buffer{gateConfig(12), port,
                       [](Addr, unsigned, unsigned, Cycle) {
                           return Cycle{6};
                       }};
    StallStats stalls;
};

/** @p records of compress (seed @p seed), materialized. */
MaterializedTrace
compressTrace(Count records, std::uint64_t seed)
{
    SyntheticSource source(spec92::profile("compress"), records, seed);
    return MaterializedTrace::build(source);
}

/**
 * End-to-end simulator throughput on @p machine: the best of @p reps
 * runs, each fed by the source @p feed() builds inside the timed
 * region, with @p sink attached when it has any sink.
 */
template <typename Feed>
GateResult
simLane(const MachineConfig &machine, obs::ObsSink sink,
        Count instructions, int reps, Feed &&feed)
{
    return bestOf(instructions, reps, [&](double &stop) {
        auto source = feed();
        Simulator simulator(machine);
        if (sink.attached())
            simulator.attachObs(sink);
        SimResults results = simulator.run(source);
        stop = now();
        return results.cycles;
    });
}

/**
 * Multi-core throughput, like for like with sim_simd: a two-core
 * FCFS system replaying pre-built per-core materialized traces (the
 * run-item feed every cached fig_mc_bus cell takes). The trace
 * builds are untimed and the lane keeps the best of @p reps replays.
 * The rate counts instructions summed across cores, so its ratio to
 * sim_simd is the per-instruction price of arbitration (causality
 * windows, grant bookkeeping) plus what contention does to the
 * schedule.
 */
GateResult
multiCoreLane(Count instructions, int reps)
{
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    MaterializedTrace traces[] = {compressTrace(instructions, 1),
                                  compressTrace(instructions, 2)};
    return bestOf(2 * instructions, reps, [&](double &stop) {
        MaterializedCursor cursor0(traces[0]);
        MaterializedCursor cursor1(traces[1]);
        MultiCoreSystem system(machine);
        MultiCoreResults results = system.run({&cursor0, &cursor1});
        stop = now();
        return results.aggregate().cycles;
    });
}

/**
 * Time @p passes runs of @p experiment over every benchmark,
 * @p instructions measured after @p warmup, with the trace and
 * checkpoint caches on or off per @p caches, after @p primes untimed
 * runs and between cleared grid caches. Only the runExperiment calls
 * are timed.
 */
GateResult
gridLane(const Experiment &experiment, Count instructions, Count warmup,
         bool caches, int primes, int passes)
{
    auto profiles = spec92::allProfiles();
    RunnerOptions options;
    options.instructions = instructions;
    options.warmup = warmup;
    options.threads = 1; // timing must not depend on core count
    options.seed = 1;
    options.materialize = caches;
    options.checkpoints = caches;
    clearGridCaches();
    for (int prime = 0; prime < primes; ++prime)
        runExperiment(experiment, profiles, options);
    double seconds = 0.0;
    Count cycles = 0, instr = 0;
    for (int pass = 0; pass < passes; ++pass) {
        double start = now();
        ExperimentResults results =
            runExperiment(experiment, profiles, options);
        seconds += now() - start;
        for (const auto &row : results) {
            for (const SimResults &cell : row) {
                cycles += cell.cycles;
                instr += cell.instructions;
            }
        }
    }
    clearGridCaches();
    return rateOf(instr, seconds, cycles);
}

/**
 * Records/second decoding a 200k-record materialized trace through
 * the batched cursor in batches of 256 Items: records (nextBatch) or
 * run items (nextRuns, rated in the records they cover). The trace
 * build is untimed.
 */
template <typename Item>
GateResult
decodeLane(double min_seconds)
{
    MaterializedTrace trace = compressTrace(200'000, 1);
    return timeLoop(min_seconds, [&](std::uint64_t iterations) {
        MaterializedCursor cursor(trace);
        Item batch[256];
        Addr sink = 0;
        std::uint64_t left = iterations;
        while (left > 0) {
            std::uint64_t covered = 0;
            if constexpr (std::is_same_v<Item, TraceRun>) {
                std::size_t got = cursor.nextRuns(batch, 256);
                for (std::size_t i = 0; i < got; ++i)
                    covered += batch[i].nonMemBefore + 1;
                if (got > 0)
                    sink += batch[got - 1].rec.addr;
            } else {
                covered = cursor.nextBatch(
                    batch, static_cast<std::size_t>(
                               std::min<std::uint64_t>(left, 256)));
                if (covered > 0)
                    sink += batch[covered - 1].addr;
            }
            if (covered == 0) {
                cursor.reset();
                continue;
            }
            left -= std::min(left, covered);
        }
        if (sink == ~Addr{0}) // defeat dead-code elimination
            std::cerr << "";
    });
}

/**
 * The wbsim-serve hit path's codec work, without sockets or the
 * store: one op client-encodes an 8-cell sweep request over the
 * paper's depth x hazard-policy space, server-decodes it, appends the
 * 8 cells' stored result tokens into a Results payload (what a store
 * hit costs the server), and client-decodes that payload. The cells
 * are simulated, rendered and escaped once, untimed, as a miss does;
 * best of @p reps timed passes of @p ops ops.
 */
GateResult
serveCodec(int ops, int reps)
{
    const LoadHazardPolicy hazards[] = {LoadHazardPolicy::FlushFull,
                                        LoadHazardPolicy::ReadFromWB};
    const std::vector<std::string> &benchmarks =
        spec92::benchmarkNames();
    serve::Request request;
    request.type = serve::RequestType::Sweep;
    std::vector<std::string> documents;
    std::vector<std::string> tokens;
    for (unsigned depth : {2u, 4u, 8u, 12u}) {
        for (LoadHazardPolicy hazard : hazards) {
            serve::CellSpec cell;
            cell.benchmark = benchmarks[request.cells.size()];
            cell.instructions = 20'000;
            cell.warmup = 5'000;
            cell.machine = figures::baselineMachine();
            cell.machine.writeBuffer.depth = depth;
            cell.machine.writeBuffer.highWaterMark = std::min(
                cell.machine.writeBuffer.highWaterMark, depth);
            cell.machine.writeBuffer.hazardPolicy = hazard;
            obs::Provenance provenance;
            provenance.machineFingerprint =
                cell.machine.stateFingerprint();
            provenance.machine = cell.machine.describe();
            provenance.seed = cell.seed;
            provenance.instructions = cell.instructions;
            provenance.warmup = cell.warmup;
            obs::writeSimResultsJson(
                documents.emplace_back(),
                runOne(spec92::profile(cell.benchmark), cell.machine,
                       cell.instructions, cell.seed, cell.warmup),
                provenance);
            tokens.push_back(serve::encodeResultToken(documents.back()));
            request.cells.push_back(std::move(cell));
        }
    }
    std::size_t sink = 0;
    serve::Response back;
    GateResult r = bestOf(static_cast<std::uint64_t>(ops), reps,
                          [&](double &stop) {
        for (int op = 0; op < ops; ++op) {
            serve::Request decoded;
            std::string error;
            if (!serve::decodeRequest(serve::encodeRequest(request), decoded,
                                      error))
                wbsim_panic("serve_codec: ", error);
            std::vector<serve::ResultCellView> cells(
                decoded.cells.size());
            for (std::size_t i = 0; i < cells.size(); ++i)
                cells[i] = {decoded.cells[i].benchmark, true, tokens[i]};
            back = serve::Response();
            if (!serve::decodeResponse(serve::encodeResults(cells), back,
                                       error))
                wbsim_panic("serve_codec: ", error);
            sink += back.cells.size();
        }
        stop = now();
        return Count{0};
    });
    wbsim_assert(sink == std::size_t(ops) * std::size_t(reps) * 8,
                 "serve_codec lost cells");
    for (std::size_t i = 0; i < documents.size(); ++i)
        wbsim_assert(back.cells[i].resultJson == documents[i],
                     "serve_codec: a stored token decoded to other "
                     "bytes");
    return r;
}

/** One lane of the gate: its BENCH_core.json name and its timer. */
struct Lane
{
    const char *name;
    std::function<GateResult()> run;
};

/**
 * Every wall-clock lane, in emission order. Smoke runs shorten the
 * timing loops, simulations and grids; the lanes and what each one
 * times stay the same.
 */
std::vector<Lane>
laneTable(bool smoke)
{
    double min_seconds = smoke ? 0.02 : 0.5;
    Count sim = smoke ? 20'000 : 400'000; // per core in the sim_* lanes
    Count fig = smoke ? 5'000 : 50'000;
    Count grid = smoke ? 4'000 : 40'000;
    int grid_passes = smoke ? 2 : 3;
    int reps = smoke ? 2 : 5;
    int codec_ops = smoke ? 20 : 200;
    MachineConfig baseline = figures::baselineMachine();
    auto profile = spec92::profile("compress");
    auto generate = [=] { return SyntheticSource(profile, sim, 1); };
    auto fig04 = [=](bool caches) {
        return gridLane(figures::figure04(), grid, grid / 2, caches, 1,
                        grid_passes);
    };

    return {
        // Sequential stores that coalesce heavily (BM_StoreMerge-
        // class): the word-sized stride puts eight consecutive stores
        // in each 32-byte entry, so seven of eight take the merge
        // path.
        {"wb_store_merge_d12",
         [=] {
             return timeLoop(min_seconds, [](std::uint64_t iterations) {
                 GateBuffer gate;
                 Cycle t = 0;
                 for (std::uint64_t i = 0; i < iterations; ++i) {
                     t += 4;
                     gate.buffer.store(t % (1 << 20), 4, t, gate.stalls);
                 }
             });
         }},
        // Random store addresses: allocate-heavy
        // (BM_StoreScatter-class).
        {"wb_store_scatter_d12",
         [=] {
             return timeLoop(min_seconds, [](std::uint64_t iterations) {
                 GateBuffer gate;
                 Cycle t = 0;
                 std::uint64_t x = 0x123456789ull;
                 for (std::uint64_t i = 0; i < iterations; ++i) {
                     t += 16;
                     x = x * 6364136223846793005ull
                         + 1442695040888963407ull;
                     Addr addr = ((x >> 20) % (1 << 24)) & ~Addr{7};
                     gate.buffer.store(addr, 8, t, gate.stalls);
                 }
             });
         }},
        // Load probes against a part-full buffer (BM_ProbeLoad-class;
        // most probes miss, the hot no-hazard path).
        {"wb_probe_load_d12",
         [=] {
             GateBuffer gate;
             for (unsigned i = 0; i < 10; ++i)
                 gate.buffer.store(i * 64, 8, i, gate.stalls);
             return timeLoop(min_seconds, [&](std::uint64_t iterations) {
                 Addr addr = 0;
                 unsigned hits = 0;
                 for (std::uint64_t i = 0; i < iterations; ++i) {
                     addr = (addr + 32) % 4096;
                     hits += gate.buffer.probeLoad(addr, 8).blockHit ? 1 : 0;
                 }
                 if (hits == ~0u) // defeat dead-code elimination
                     std::cerr << "";
             });
         }},
        // Generator-fed, one shot (micro_simulator-class).
        {"sim_baseline",
         [=] { return simLane(baseline, {}, sim, 1, generate); }},
        // Every observability sink attached (metrics registry,
        // timeline, event log): its rate against sim_baseline puts a
        // number on the always-on instrumentation overhead; the gate
        // thresholds treat both alike.
        {"sim_baseline_obs",
         [=] {
             obs::MetricsRegistry metrics;
             obs::Timeline timeline;
             EventLog log;
             return simLane(baseline, {&metrics, &timeline, &log}, sim, 1,
                            generate);
         }},
        // Every buffer policy resolved through the parse*() names and
        // the policy factory, the path the figure binaries' override
        // flags use. Tracks the cost of the pluggable retirement
        // engine; it should stay within noise of sim_baseline.
        {"sim_policy_layer",
         [=] {
             MachineConfig machine = baseline;
             machine.writeBuffer.hazardPolicy =
                 parseLoadHazardPolicy("flush-full");
             machine.writeBuffer.retirementMode =
                 parseRetirementMode("occupancy");
             machine.writeBuffer.retirementOrder =
                 parseRetirementOrder("fifo");
             machine.validate();
             return simLane(machine, {}, sim, 1, generate);
         }},
        // The run-item feed over the SoA store and batched per-op
        // dispatch, the path every cached grid cell takes: a trace
        // built untimed, replayed. Backs the speedup gate (>= 3x the
        // pre-SoA sim_baseline).
        {"sim_simd",
         [=] {
             MaterializedTrace trace = compressTrace(sim, 1);
             return simLane(baseline, {}, sim, reps,
                            [&] { return MaterializedCursor(trace); });
         }},
        {"sim_multicore", [=] { return multiCoreLane(sim, reps); }},
        // abl09's real-I-cache machine (8 KB direct-mapped I-cache):
        // run items whose NonMem runs are charged one fetch per
        // I-cache line.
        {"sim_icache",
         [=] {
             MachineConfig machine = baseline;
             machine.perfectICache = false;
             MaterializedTrace trace = compressTrace(sim, 1);
             return simLane(machine, {}, sim, reps,
                            [&] { return MaterializedCursor(trace); });
         }},
        // Figure 3 replay: the full benchmark grid at reduced length,
        // one cold pass with the caches on.
        {"fig03_replay",
         [=] {
             return gridLane(figures::figure03(), fig, fig / 10, true, 0,
                             1);
         }},
        // The batched record-materializing decode: the per-variant
        // replay cost that replaces per-variant generation in the
        // grid.
        {"trace_replay",
         [=] { return decodeLane<TraceRecord>(min_seconds); }},
        // The run-item decode (nextRuns): NonMem runs come back as
        // counts instead of materialized filler records, the feed the
        // simulator's batched dispatch consumes. Rated in records
        // *covered*, which makes it comparable to trace_replay; the
        // speedup gate holds it to >= 2.5x the pre-SoA trace_replay.
        {"trace_replay_runs",
         [=] { return decodeLane<TraceRun>(min_seconds); }},
        // The Figure 4 grid (all benchmarks x buffer depths), run as
        // a session runs it: the same sweep repeated in one process
        // (figure re-renders, report iterations, cross-figure shared
        // cells). One untimed priming pass in both modes, then timed
        // passes measure the steady-state sweep cost. With the caches
        // off every pass regenerates every trace and re-simulates
        // every warmup; with them on, repeats replay materialized
        // traces and fork measured runs off warm-state checkpoints.
        {"grid_fig04_nocache", [=] { return fig04(false); }},
        {"grid_fig04_cached", [=] { return fig04(true); }},
        {"serve_codec", [=] { return serveCodec(codec_ops, 5); }},
    };
}

/** The lane named @p name in @p results, or null. */
const GateResult *
findLane(const std::vector<GateResult> &results, const std::string &name)
{
    for (const GateResult &r : results)
        if (r.name == name)
            return &r;
    return nullptr;
}

/**
 * The tail lane's measurement: simulated (not wall-clock) stall-tail
 * metrics of one fixed, deterministic run, so two builds of the same
 * code produce identical numbers on any machine.
 */
struct TailResult
{
    double p99BufferFull = 0.0;
    double p99ReadAccess = 0.0;
    Count episodes = 0;
    double episodesPer10k = 0.0;
    Count maxEpisode = 0;
    Count cycles = 0;
};

/** p99 of the named stall histogram (clamped when overflowed). */
double
histogramP99(const obs::MetricsRegistry &metrics,
             const std::string &name)
{
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (metrics.kind(i) == obs::MetricKind::Histogram
            && metrics.name(i) == name)
            return metrics.histogramValue(i)
                .quantileWithOverflow(0.99).value;
    }
    return 0.0;
}

/** The tail workload is fixed regardless of smoke/full mode: its
 *  numbers gate on simulated behaviour, not machine speed. */
constexpr Count kTailInstructions = 30'000;
constexpr Count kTailWarmup = 10'000;

TailResult
measureTail()
{
    obs::MetricsRegistry metrics;
    obs::ObsSink sink{&metrics, nullptr, nullptr};
    SimResults r = runOne(spec92::profile("compress"),
                          figures::baselineMachine(),
                          kTailInstructions, 1, kTailWarmup, sink);
    TailResult tail;
    tail.p99BufferFull = histogramP99(metrics, "sim.stall.buffer_full");
    tail.p99ReadAccess = histogramP99(metrics, "sim.stall.read_access");
    tail.episodes = r.stalls.totalEvents();
    tail.episodesPer10k = r.stallEpisodesPer10k();
    tail.maxEpisode = r.maxStallEpisode();
    tail.cycles = r.cycles;

    // Test hook: inflate the measured tail to prove the gate trips.
    if (double pct = static_cast<double>(envUint("WBSIM_TAIL_INJECT",
                                                 0));
        pct > 0.0) {
        double scale = 1.0 + pct / 100.0;
        tail.p99BufferFull *= scale;
        tail.p99ReadAccess *= scale;
        tail.episodes =
            static_cast<Count>(static_cast<double>(tail.episodes)
                               * scale);
        tail.episodesPer10k *= scale;
        std::cout << "perf_gate: tail metrics inflated by " << pct
                  << "% (WBSIM_TAIL_INJECT)\n";
    }
    return tail;
}

/**
 * Read and parse the baseline WBSIM_PERF_BASELINE names, once for
 * every gate. @p doc stays null when none is named. @return false
 * when one is named but cannot be read.
 */
bool
readBaseline(obs::JsonValue &doc)
{
    const char *path = std::getenv("WBSIM_PERF_BASELINE");
    if (path == nullptr || *path == '\0')
        return true;
    std::ifstream file(path);
    if (!file) {
        std::cerr << "perf_gate: cannot read baseline " << path << "\n";
        return false;
    }
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    doc = obs::JsonValue::parse(text);
    return true;
}

/**
 * Gate one tail metric: regressions beyond 10% (plus a two-cycle
 * absolute slack on the quantiles, which are bucket-quantised) fail.
 * @return true when acceptable.
 */
bool
tailMetricOk(const char *name, double measured, double baseline,
             double slack)
{
    double limit = baseline * 1.10 + slack;
    if (measured <= limit)
        return true;
    std::cerr << "perf_gate: TAIL REGRESSION: " << name << " = "
              << measured << " exceeds baseline " << baseline
              << " (limit " << limit << ")\n";
    return false;
}

/**
 * Compare the measured tail against the baseline @p doc's tail block,
 * if it has one. @return false on a tail regression.
 */
bool
checkTailAgainstBaseline(const TailResult &tail, const obs::JsonValue &doc)
{
    if (doc.isNull())
        return true;
    if (!doc.has("tail")) {
        std::cout << "perf_gate: baseline has no tail block; tail lane "
                     "not gated\n";
        return true;
    }
    const obs::JsonValue &base = doc.at("tail");
    bool ok = true;
    ok &= tailMetricOk("p99_buffer_full", tail.p99BufferFull,
                       base.at("p99_buffer_full").number(), 2.0);
    ok &= tailMetricOk("p99_read_access", tail.p99ReadAccess,
                       base.at("p99_read_access").number(), 2.0);
    ok &= tailMetricOk("episodes", static_cast<double>(tail.episodes),
                       base.at("episodes").number(), 0.0);
    if (ok)
        std::cout << "perf_gate: tail lane within baseline limits\n";
    return ok;
}

/**
 * Every lane the baseline @p doc records must run here too; otherwise
 * a renamed or dropped lane would silently leave its gate with
 * nothing to check. @return false when one is missing.
 */
bool
checkLanesAgainstBaseline(const std::vector<GateResult> &results,
                          const obs::JsonValue &doc)
{
    if (!doc.has("results"))
        return true;
    bool ok = true;
    for (const obs::JsonValue &entry : doc.at("results").array()) {
        const std::string &name = entry.at("name").string();
        if (findLane(results, name) == nullptr) {
            std::cerr << "perf_gate: MISSING LANE: " << name
                      << " is in the baseline but not in this run\n";
            ok = false;
        }
    }
    return ok;
}

/**
 * The pre-SoA reference rates the speedup gate divides by. Loaded
 * from the baseline file and copied forward into every file this
 * binary writes, so the reference survives regeneration.
 */
struct SpeedupBaseline
{
    bool present = false;
    /** The baseline has `results` but no `speedup_baseline` block. */
    bool missing = false;
    double simBaseline = 0.0;  //!< pre-SoA sim_baseline ops/s
    double traceReplay = 0.0;  //!< pre-SoA trace_replay ops/s
};

/** The speedup reference in the baseline @p doc's
 *  `speedup_baseline` block. */
SpeedupBaseline
loadSpeedupBaseline(const obs::JsonValue &doc)
{
    SpeedupBaseline base;
    if (!doc.has("speedup_baseline")) {
        base.missing = doc.has("results");
        return base;
    }
    const obs::JsonValue &block = doc.at("speedup_baseline");
    base.simBaseline = block.at("sim_baseline_ops_per_sec").number();
    base.traceReplay = block.at("trace_replay_ops_per_sec").number();
    base.present = true;
    return base;
}

/**
 * The speedup gate: sim_simd >= 3x the pre-SoA sim_baseline and
 * trace_replay_runs >= 2.5x the pre-SoA trace_replay. Ratios are
 * printed in every mode; only full mode fails on them (smoke lengths
 * are startup-dominated and CI runners are noisy). A missing lane, or
 * a baseline with `results` but no `speedup_baseline` block, fails in
 * every mode.
 * @return true when acceptable.
 */
bool
checkSpeedupAgainstBaseline(const std::vector<GateResult> &results,
                            const SpeedupBaseline &base, bool smoke)
{
    if (base.missing) {
        std::cerr << "perf_gate: MISSING BLOCK: the baseline has no "
                     "speedup_baseline block; restore it from the "
                     "committed BENCH_core.json\n";
        return false;
    }
    if (!base.present)
        return true;
    const GateResult *simd = findLane(results, "sim_simd");
    const GateResult *runs = findLane(results, "trace_replay_runs");
    if (simd == nullptr || runs == nullptr) {
        std::cerr << "perf_gate: MISSING LANE: the speedup gate needs "
                     "sim_simd and trace_replay_runs\n";
        return false;
    }
    double sim_ratio = simd->opsPerSec / base.simBaseline;
    double replay_ratio = runs->opsPerSec / base.traceReplay;
    std::cout << "perf_gate: sim_simd = " << sim_ratio
              << "x pre-SoA sim_baseline (need >= 3x)\n"
              << "perf_gate: trace_replay_runs = " << replay_ratio
              << "x pre-SoA trace_replay (need >= 2.5x)\n";
    if (smoke) {
        std::cout << "perf_gate: smoke mode; speedup ratios "
                     "informational only\n";
        return true;
    }
    bool ok = true;
    if (sim_ratio < 3.0) {
        std::cerr << "perf_gate: SPEEDUP REGRESSION: sim_simd = "
                  << simd->opsPerSec << " ops/s is below 3x the "
                  << "pre-SoA sim_baseline " << base.simBaseline
                  << "\n";
        ok = false;
    }
    if (replay_ratio < 2.5) {
        std::cerr << "perf_gate: SPEEDUP REGRESSION: "
                  << "trace_replay_runs = " << runs->opsPerSec
                  << " ops/s is below 2.5x the pre-SoA trace_replay "
                  << base.traceReplay << "\n";
        ok = false;
    }
    if (ok)
        std::cout << "perf_gate: speedup lanes above thresholds\n";
    return ok;
}

void
writeJson(std::ostream &os, const std::vector<GateResult> &results,
          const TailResult &tail, const SpeedupBaseline &base,
          bool smoke)
{
    obs::JsonWriter json(os);
    json.beginObject();
    json.field("schema", "wbsim-perf-gate-v1");
    json.field("mode", smoke ? "smoke" : "full");
    json.field("build_flags", obs::Provenance::defaultBuildFlags());
    json.key("results");
    json.beginArray();
    for (const GateResult &r : results) {
        json.beginObject();
        json.field("name", r.name);
        json.field("ops_per_sec", r.opsPerSec);
        json.field("iterations", r.iterations);
        json.field("seconds", r.seconds);
        if (r.cyclesPerSec > 0.0)
            json.field("sim_cycles_per_sec", r.cyclesPerSec);
        if (r.simSimdRatio > 0.0)
            json.field("sim_simd_ratio", r.simSimdRatio);
        json.endObject();
    }
    json.endArray();
    json.key("tail");
    json.beginObject();
    json.field("workload", "compress");
    json.field("instructions", kTailInstructions);
    json.field("warmup", kTailWarmup);
    json.field("cycles", tail.cycles);
    json.field("p99_buffer_full", tail.p99BufferFull);
    json.field("p99_read_access", tail.p99ReadAccess);
    json.field("episodes", tail.episodes);
    json.field("episodes_per_10k", tail.episodesPer10k);
    json.field("max_episode", tail.maxEpisode);
    json.endObject();
    if (base.present) {
        json.key("speedup_baseline");
        json.beginObject();
        json.field("sim_baseline_ops_per_sec", base.simBaseline);
        json.field("trace_replay_ops_per_sec", base.traceReplay);
        json.endObject();
    }
    json.endObject();
    os << "\n";
}

} // namespace

int
main()
{
    bool smoke = envUint("WBSIM_PERF_SMOKE", 0) != 0;
    obs::JsonValue baseline;
    bool ok = readBaseline(baseline);

    if (envUint("WBSIM_TAIL_ONLY", 0) != 0) {
        TailResult tail = measureTail();
        std::cout << "perf_gate: tail p99_buffer_full="
                  << tail.p99BufferFull << " p99_read_access="
                  << tail.p99ReadAccess << " episodes="
                  << tail.episodes << " max_episode="
                  << tail.maxEpisode << "\n";
        ok &= checkTailAgainstBaseline(tail, baseline);
        return ok ? 0 : 1;
    }

    std::vector<GateResult> results;
    for (const Lane &lane : laneTable(smoke)) {
        results.push_back(lane.run());
        results.back().name = lane.name;
    }
    auto rate = [&](const char *name) {
        const GateResult *r = findLane(results, name);
        return r != nullptr ? r->opsPerSec : 0.0;
    };
    double simd = rate("sim_simd");
    for (GateResult &r : results)
        if (simd > 0.0)
            r.simSimdRatio = r.opsPerSec / simd;
    std::cout << "perf_gate: sim_baseline_obs overhead = "
              << rate("sim_baseline") / rate("sim_baseline_obs")
              << "x\n"
              << "perf_gate: sim_simd vs sim_baseline (this build) = "
              << simd / rate("sim_baseline") << "x\n"
              << "perf_gate: sim_multicore per-instruction rate = "
              << rate("sim_multicore") / simd
              << "x sim_simd\n"
              << "perf_gate: grid_fig04 cached speedup = "
              << rate("grid_fig04_cached") / rate("grid_fig04_nocache")
              << "x\n";

    TailResult tail = measureTail();
    SpeedupBaseline speedup_base = loadSpeedupBaseline(baseline);

    const char *env_out = std::getenv("WBSIM_PERF_OUT");
    std::string path = env_out ? env_out : "BENCH_core.json";
    std::ofstream file(path);
    if (!file) {
        std::cerr << "perf_gate: cannot write " << path << "\n";
        return 1;
    }
    writeJson(file, results, tail, speedup_base, smoke);
    writeJson(std::cout, results, tail, speedup_base, smoke);
    std::cout << "perf_gate: wrote " << path << "\n";
    ok &= checkTailAgainstBaseline(tail, baseline);
    ok &= checkLanesAgainstBaseline(results, baseline);
    ok &= checkSpeedupAgainstBaseline(results, speedup_base, smoke);
    return ok ? 0 : 1;
}
