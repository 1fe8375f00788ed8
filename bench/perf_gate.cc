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
 *                             the tail lane against (off when unset)
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
 * forward into every file it writes (seeding it from the baseline's
 * own lanes the first time), so regenerating BENCH_core.json never
 * loosens the gate. Wall-clock ratios are only meaningful on a quiet
 * machine at full length, so smoke runs report them without gating.
 *
 * The `serve_codec` lane times the wbsim-serve hit path's codec work
 * (an 8-cell sweep request decoded, its 8 stored result tokens
 * appended into a Results payload, and that payload client-decoded);
 * it is not gated.
 * Its ops are not instructions, so it also records `sim_simd_ratio`,
 * its rate over this run's sim_simd rate, which stays comparable
 * across host phases when the raw rate does not.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
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
     *  normalizer for lanes whose ops are not instructions. */
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

/**
 * Time @p body(iterations), doubling the iteration count until the
 * run lasts at least @p min_seconds, and record the final rate.
 */
template <typename Body>
GateResult
timeLoop(const std::string &name, double min_seconds, Body &&body)
{
    std::uint64_t iterations = 1024;
    for (;;) {
        double start = now();
        body(iterations);
        double elapsed = now() - start;
        if (elapsed >= min_seconds || iterations >= (1ull << 34)) {
            GateResult r;
            r.name = name;
            r.iterations = iterations;
            r.seconds = elapsed;
            r.opsPerSec = elapsed > 0.0
                ? static_cast<double>(iterations) / elapsed
                : 0.0;
            return r;
        }
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

WriteBufferConfig
gateConfig(unsigned depth)
{
    WriteBufferConfig config;
    config.depth = depth;
    config.highWaterMark = 2;
    return config;
}

/** Sequential stores that coalesce heavily (BM_StoreMerge-class):
 *  the word-sized stride puts eight consecutive stores in each
 *  32-byte entry, so seven of eight take the merge path. */
GateResult
storeMergeDepth12(double min_seconds)
{
    return timeLoop("wb_store_merge_d12", min_seconds,
                    [](std::uint64_t iterations) {
        L2Port port;
        WriteBuffer buffer(gateConfig(12), port,
                           [](Addr, unsigned, unsigned, Cycle) {
                               return Cycle{6};
                           });
        StallStats stalls;
        Cycle t = 0;
        for (std::uint64_t i = 0; i < iterations; ++i) {
            t += 4;
            Addr addr = t % (1 << 20);
            buffer.store(addr, 4, t, stalls);
        }
    });
}

/** Random store addresses: allocate-heavy (BM_StoreScatter-class). */
GateResult
storeScatterDepth12(double min_seconds)
{
    return timeLoop("wb_store_scatter_d12", min_seconds,
                    [](std::uint64_t iterations) {
        L2Port port;
        WriteBuffer buffer(gateConfig(12), port,
                           [](Addr, unsigned, unsigned, Cycle) {
                               return Cycle{6};
                           });
        StallStats stalls;
        Cycle t = 0;
        std::uint64_t x = 0x123456789ull;
        for (std::uint64_t i = 0; i < iterations; ++i) {
            t += 16;
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            Addr addr = ((x >> 20) % (1 << 24)) & ~Addr{7};
            buffer.store(addr, 8, t, stalls);
        }
    });
}

/** Load probes against a part-full 12-deep buffer
 *  (BM_ProbeLoad-class; most probes miss, the hot no-hazard path). */
GateResult
probeLoadDepth12(double min_seconds)
{
    L2Port port;
    WriteBuffer buffer(gateConfig(12), port,
                       [](Addr, unsigned, unsigned, Cycle) {
                           return Cycle{6};
                       });
    StallStats stalls;
    for (unsigned i = 0; i < 10; ++i)
        buffer.store(i * 64, 8, i, stalls);
    return timeLoop("wb_probe_load_d12", min_seconds,
                    [&](std::uint64_t iterations) {
        Addr addr = 0;
        unsigned hits = 0;
        for (std::uint64_t i = 0; i < iterations; ++i) {
            addr = (addr + 32) % 4096;
            hits += buffer.probeLoad(addr, 8).blockHit ? 1 : 0;
        }
        if (hits == ~0u) // defeat dead-code elimination
            std::cerr << "";
    });
}

/** End-to-end simulator throughput (micro_simulator-class). */
GateResult
simulatorBaseline(Count instructions)
{
    auto profile = spec92::profile("compress");
    double start = now();
    SyntheticSource source(profile, instructions, 1);
    Simulator simulator(figures::baselineMachine());
    SimResults results = simulator.run(source);
    double elapsed = now() - start;
    GateResult r;
    r.name = "sim_baseline";
    r.iterations = instructions;
    r.seconds = elapsed;
    r.opsPerSec = static_cast<double>(instructions) / elapsed;
    r.cyclesPerSec = static_cast<double>(results.cycles) / elapsed;
    return r;
}

/**
 * The same end-to-end run with every observability sink attached
 * (metrics registry, timeline, event log). Comparing its rate against
 * sim_baseline puts a number on the always-on instrumentation
 * overhead; the gate thresholds treat both alike.
 */
GateResult
simulatorObserved(Count instructions)
{
    auto profile = spec92::profile("compress");
    obs::MetricsRegistry metrics;
    obs::Timeline timeline;
    EventLog log;
    double start = now();
    SyntheticSource source(profile, instructions, 1);
    Simulator simulator(figures::baselineMachine());
    simulator.attachObs(obs::ObsSink{&metrics, &timeline, &log});
    SimResults results = simulator.run(source);
    double elapsed = now() - start;
    GateResult r;
    r.name = "sim_baseline_obs";
    r.iterations = instructions;
    r.seconds = elapsed;
    r.opsPerSec = static_cast<double>(instructions) / elapsed;
    r.cyclesPerSec = static_cast<double>(results.cycles) / elapsed;
    return r;
}

/**
 * The baseline run again, but with every buffer policy resolved
 * through the parse*() names and the policy factory — the exact path
 * the figure binaries' override flags use. Tracks the cost of the
 * pluggable retirement engine against sim_baseline; the two should
 * stay within noise of each other.
 */
GateResult
simulatorPolicyLayer(Count instructions)
{
    auto profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.writeBuffer.hazardPolicy =
        parseLoadHazardPolicy("flush-full");
    machine.writeBuffer.retirementMode =
        parseRetirementMode("occupancy");
    machine.writeBuffer.retirementOrder = parseRetirementOrder("fifo");
    machine.validate();
    double start = now();
    SyntheticSource source(profile, instructions, 1);
    Simulator simulator(machine);
    SimResults results = simulator.run(source);
    double elapsed = now() - start;
    GateResult r;
    r.name = "sim_policy_layer";
    r.iterations = instructions;
    r.seconds = elapsed;
    r.opsPerSec = static_cast<double>(instructions) / elapsed;
    r.cyclesPerSec = static_cast<double>(results.cycles) / elapsed;
    return r;
}

/**
 * End-to-end simulator throughput replaying a pre-built materialized
 * trace: the run-item feed over the SoA store and batched per-op
 * dispatch — the path every cached grid cell takes. The trace build
 * is untimed. This lane backs the speedup gate (>= 3x the pre-SoA
 * sim_baseline), so it keeps the best of @p reps replays rather than
 * a single shot: the threshold should trip on code regressions, not
 * on a scheduler hiccup.
 */
GateResult
simulatorSimd(Count instructions, int reps)
{
    auto profile = spec92::profile("compress");
    SyntheticSource source(profile, instructions, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);
    GateResult r;
    r.name = "sim_simd";
    r.iterations = instructions;
    for (int rep = 0; rep < reps; ++rep) {
        double start = now();
        MaterializedCursor cursor(trace);
        Simulator simulator(figures::baselineMachine());
        SimResults results = simulator.run(cursor);
        double elapsed = now() - start;
        if (elapsed <= 0.0)
            continue;
        double rate = static_cast<double>(instructions) / elapsed;
        if (rate > r.opsPerSec) {
            r.opsPerSec = rate;
            r.seconds = elapsed;
            r.cyclesPerSec =
                static_cast<double>(results.cycles) / elapsed;
        }
    }
    return r;
}

/**
 * The sim_simd setup on abl09's real-I-cache machine (8 KB
 * direct-mapped I-cache): run items whose NonMem runs are charged
 * one fetch per I-cache line. The trace build is untimed; best of
 * @p reps replays.
 */
GateResult
simulatorICache(Count instructions, int reps)
{
    auto profile = spec92::profile("compress");
    SyntheticSource source(profile, instructions, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);
    MachineConfig machine = figures::baselineMachine();
    machine.perfectICache = false;
    GateResult r;
    r.name = "sim_icache";
    r.iterations = instructions;
    for (int rep = 0; rep < reps; ++rep) {
        double start = now();
        MaterializedCursor cursor(trace);
        Simulator simulator(machine);
        SimResults results = simulator.run(cursor);
        double elapsed = now() - start;
        if (elapsed <= 0.0)
            continue;
        double rate = static_cast<double>(instructions) / elapsed;
        if (rate > r.opsPerSec) {
            r.opsPerSec = rate;
            r.seconds = elapsed;
            r.cyclesPerSec =
                static_cast<double>(results.cycles) / elapsed;
        }
    }
    return r;
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
simulatorMultiCore(Count instructions, int reps)
{
    auto profile = spec92::profile("compress");
    MachineConfig machine = figures::baselineMachine();
    machine.cores = 2;
    SyntheticSource first(profile, instructions, 1);
    SyntheticSource second(profile, instructions, 2);
    MaterializedTrace traces[] = {MaterializedTrace::build(first),
                                  MaterializedTrace::build(second)};
    GateResult r;
    r.name = "sim_multicore";
    r.iterations = 2 * instructions;
    for (int rep = 0; rep < reps; ++rep) {
        double start = now();
        MaterializedCursor cursor0(traces[0]);
        MaterializedCursor cursor1(traces[1]);
        MultiCoreSystem system(machine);
        MultiCoreResults results = system.run({&cursor0, &cursor1});
        double elapsed = now() - start;
        if (elapsed <= 0.0)
            continue;
        double rate = static_cast<double>(2 * instructions) / elapsed;
        if (rate > r.opsPerSec) {
            Count cycles = 0;
            for (const SimResults &core : results.perCore)
                cycles = std::max(cycles, core.cycles);
            r.opsPerSec = rate;
            r.seconds = elapsed;
            r.cyclesPerSec = static_cast<double>(cycles) / elapsed;
        }
    }
    return r;
}

/** Figure 3 replay: the full benchmark grid at reduced length. */
GateResult
fig03Replay(Count instructions)
{
    Experiment experiment = figures::figure03();
    auto profiles = spec92::allProfiles();
    RunnerOptions options;
    options.instructions = instructions;
    options.warmup = instructions / 10;
    options.threads = 1; // timing must not depend on core count
    options.seed = 1;
    double start = now();
    ExperimentResults results =
        runExperiment(experiment, profiles, options);
    double elapsed = now() - start;
    Count cycles = 0, instr = 0;
    for (const auto &row : results) {
        for (const SimResults &cell : row) {
            cycles += cell.cycles;
            instr += cell.instructions;
        }
    }
    GateResult r;
    r.name = "fig03_replay";
    r.iterations = instr;
    r.seconds = elapsed;
    r.opsPerSec = static_cast<double>(instr) / elapsed;
    r.cyclesPerSec = static_cast<double>(cycles) / elapsed;
    return r;
}

/** Records/second decoding a materialized trace through the batched
 *  cursor — the per-variant replay cost that replaces per-variant
 *  generation in the grid. */
GateResult
traceReplay(double min_seconds)
{
    auto profile = spec92::profile("compress");
    SyntheticSource source(profile, 200'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);
    return timeLoop("trace_replay", min_seconds,
                    [&](std::uint64_t iterations) {
        MaterializedCursor cursor(trace);
        TraceRecord batch[256];
        Addr sink = 0;
        std::uint64_t left = iterations;
        while (left > 0) {
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, 256));
            std::size_t got = cursor.nextBatch(batch, want);
            if (got == 0) {
                cursor.reset();
                continue;
            }
            sink += batch[got - 1].addr;
            left -= got;
        }
        if (sink == ~Addr{0}) // defeat dead-code elimination
            std::cerr << "";
    });
}

/**
 * Records/second through the run-item decode (nextRuns): NonMem runs
 * come back as counts instead of materialized filler records — the
 * feed the simulator's batched dispatch actually consumes. The rate
 * counts records *covered* (runs fold in), which is what makes it
 * comparable to trace_replay's records-materialized rate; the
 * speedup gate holds it to >= 2.5x the pre-SoA trace_replay.
 */
GateResult
traceReplayRuns(double min_seconds)
{
    auto profile = spec92::profile("compress");
    SyntheticSource source(profile, 200'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);
    return timeLoop("trace_replay_runs", min_seconds,
                    [&](std::uint64_t iterations) {
        MaterializedCursor cursor(trace);
        TraceRun batch[256];
        Addr sink = 0;
        std::uint64_t left = iterations;
        while (left > 0) {
            std::size_t got = cursor.nextRuns(batch, 256);
            if (got == 0) {
                cursor.reset();
                continue;
            }
            std::uint64_t covered = 0;
            for (std::size_t i = 0; i < got; ++i)
                covered += batch[i].nonMemBefore + 1;
            sink += batch[got - 1].rec.addr;
            left -= std::min(left, covered);
        }
        if (sink == ~Addr{0}) // defeat dead-code elimination
            std::cerr << "";
    });
}

/**
 * The Figure 4 grid (all benchmarks x buffer depths), run as a
 * session runs it: the same sweep repeated in one process (figure
 * re-renders, report iterations, cross-figure shared cells). One
 * untimed priming pass in both modes, then timed passes measure the
 * steady-state sweep cost. With the caches off every pass
 * regenerates every trace and re-simulates every warmup; with them
 * on, repeats replay materialized traces and fork measured runs off
 * warm-state checkpoints.
 */
GateResult
gridFig04(const std::string &name, bool cached, Count instructions,
          int passes)
{
    Experiment experiment = figures::figure04();
    auto profiles = spec92::allProfiles();
    RunnerOptions options;
    options.instructions = instructions;
    options.warmup = instructions / 2;
    options.threads = 1; // timing must not depend on core count
    options.seed = 1;
    options.materialize = cached;
    options.checkpoints = cached;
    clearGridCaches();
    runExperiment(experiment, profiles, options); // prime
    double start = now();
    Count cycles = 0, instr = 0;
    for (int pass = 0; pass < passes; ++pass) {
        ExperimentResults results =
            runExperiment(experiment, profiles, options);
        for (const auto &row : results) {
            for (const SimResults &cell : row) {
                cycles += cell.cycles;
                instr += cell.instructions;
            }
        }
    }
    double elapsed = now() - start;
    clearGridCaches();
    GateResult r;
    r.name = name;
    r.iterations = instr;
    r.seconds = elapsed;
    r.opsPerSec = static_cast<double>(instr) / elapsed;
    r.cyclesPerSec = static_cast<double>(cycles) / elapsed;
    return r;
}

/**
 * The wbsim-serve hit path's codec work, without sockets or the
 * store: one op decodes an 8-cell sweep request over the paper's
 * depth x hazard-policy space, appends the 8 cells' stored result
 * tokens into a Results payload (what a store hit costs the server),
 * and client-decodes that payload. The cells are simulated, rendered
 * and escaped once, untimed, as a miss does; best of @p reps timed
 * passes of @p ops ops.
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
    const std::string requestBytes = serve::encodeRequest(request);

    GateResult r;
    r.name = "serve_codec";
    r.iterations = static_cast<std::uint64_t>(ops);
    std::size_t sink = 0;
    serve::Response back;
    for (int rep = 0; rep < reps; ++rep) {
        double start = now();
        for (int op = 0; op < ops; ++op) {
            serve::Request decoded;
            std::string error;
            if (!serve::decodeRequest(requestBytes, decoded, error))
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
        double elapsed = now() - start;
        double rate = elapsed > 0.0 ? ops / elapsed : 0.0;
        if (rate > r.opsPerSec) {
            r.opsPerSec = rate;
            r.seconds = elapsed;
        }
    }
    wbsim_assert(sink == std::size_t(ops) * std::size_t(reps) * 8,
                 "serve_codec lost cells");
    for (std::size_t i = 0; i < documents.size(); ++i)
        wbsim_assert(back.cells[i].resultJson == documents[i],
                     "serve_codec: a stored token decoded to other "
                     "bytes");
    return r;
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
 * Compare the measured tail against the committed baseline file, if
 * WBSIM_PERF_BASELINE names one with a tail block. @return false on
 * a tail regression.
 */
bool
checkTailAgainstBaseline(const TailResult &tail)
{
    const char *env = std::getenv("WBSIM_PERF_BASELINE");
    if (env == nullptr || *env == '\0')
        return true;
    std::ifstream file(env);
    if (!file) {
        std::cerr << "perf_gate: cannot read baseline " << env << "\n";
        return false;
    }
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    obs::JsonValue doc = obs::JsonValue::parse(text);
    if (!doc.has("tail")) {
        std::cout << "perf_gate: baseline " << env
                  << " has no tail block; tail lane not gated\n";
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
 * The pre-SoA reference rates the speedup gate divides by. Loaded
 * from the baseline file and copied forward into every file this
 * binary writes, so the reference survives regeneration.
 */
struct SpeedupBaseline
{
    bool present = false;
    double simBaseline = 0.0;  //!< pre-SoA sim_baseline ops/s
    double traceReplay = 0.0;  //!< pre-SoA trace_replay ops/s
};

/**
 * Read the speedup reference from WBSIM_PERF_BASELINE: prefer the
 * explicit `speedup_baseline` block; on a baseline that predates the
 * block (the pre-SoA BENCH_core.json itself), seed the reference
 * from its own sim_baseline / trace_replay lanes.
 */
SpeedupBaseline
loadSpeedupBaseline()
{
    SpeedupBaseline base;
    const char *env = std::getenv("WBSIM_PERF_BASELINE");
    if (env == nullptr || *env == '\0')
        return base;
    std::ifstream file(env);
    if (!file)
        return base;
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    obs::JsonValue doc = obs::JsonValue::parse(text);
    if (doc.has("speedup_baseline")) {
        const obs::JsonValue &block = doc.at("speedup_baseline");
        base.simBaseline =
            block.at("sim_baseline_ops_per_sec").number();
        base.traceReplay =
            block.at("trace_replay_ops_per_sec").number();
        base.present = true;
        return base;
    }
    if (!doc.has("results"))
        return base;
    for (const obs::JsonValue &entry : doc.at("results").array()) {
        const std::string &name = entry.at("name").string();
        if (name == "sim_baseline")
            base.simBaseline = entry.at("ops_per_sec").number();
        else if (name == "trace_replay")
            base.traceReplay = entry.at("ops_per_sec").number();
    }
    base.present = base.simBaseline > 0.0 && base.traceReplay > 0.0;
    return base;
}

/**
 * The speedup gate: sim_simd >= 3x the pre-SoA sim_baseline and
 * trace_replay_runs >= 2.5x the pre-SoA trace_replay. Ratios are
 * printed in every mode; only full mode fails on them (smoke lengths
 * are startup-dominated and CI runners are noisy).
 * @return true when acceptable.
 */
bool
checkSpeedupAgainstBaseline(const std::vector<GateResult> &results,
                            const SpeedupBaseline &base, bool smoke)
{
    if (!base.present)
        return true;
    auto find = [&](const char *name) -> const GateResult * {
        for (const GateResult &r : results)
            if (r.name == name)
                return &r;
        return nullptr;
    };
    const GateResult *simd = find("sim_simd");
    const GateResult *runs = find("trace_replay_runs");
    if (simd == nullptr || runs == nullptr)
        return true;
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
    double min_seconds = smoke ? 0.02 : 0.5;
    Count sim_instructions = smoke ? 20'000 : 400'000;
    Count fig_instructions = smoke ? 5'000 : 50'000;

    Count grid_instructions = smoke ? 4'000 : 40'000;
    int grid_passes = smoke ? 2 : 3;

    if (envUint("WBSIM_TAIL_ONLY", 0) != 0) {
        TailResult tail = measureTail();
        std::cout << "perf_gate: tail p99_buffer_full="
                  << tail.p99BufferFull << " p99_read_access="
                  << tail.p99ReadAccess << " episodes="
                  << tail.episodes << " max_episode="
                  << tail.maxEpisode << "\n";
        return checkTailAgainstBaseline(tail) ? 0 : 1;
    }

    std::vector<GateResult> results;
    results.push_back(storeMergeDepth12(min_seconds));
    results.push_back(storeScatterDepth12(min_seconds));
    results.push_back(probeLoadDepth12(min_seconds));
    results.push_back(simulatorBaseline(sim_instructions));
    results.push_back(simulatorObserved(sim_instructions));
    {
        const GateResult &plain = results[results.size() - 2];
        const GateResult &observed = results.back();
        std::cout << "perf_gate: sim_baseline_obs overhead = "
                  << plain.opsPerSec / observed.opsPerSec << "x\n";
    }
    results.push_back(simulatorPolicyLayer(sim_instructions));
    results.push_back(simulatorSimd(sim_instructions, smoke ? 2 : 5));
    {
        const GateResult &plain = results[results.size() - 4];
        const GateResult &simd = results.back();
        std::cout << "perf_gate: sim_simd vs sim_baseline (this "
                  << "build) = " << simd.opsPerSec / plain.opsPerSec
                  << "x\n";
    }
    results.push_back(
        simulatorMultiCore(sim_instructions, smoke ? 2 : 5));
    {
        const GateResult &simd = results[results.size() - 2];
        const GateResult &multi = results.back();
        std::cout << "perf_gate: sim_multicore per-instruction rate "
                  << "= " << multi.opsPerSec / simd.opsPerSec
                  << "x sim_simd\n";
    }
    results.push_back(simulatorICache(sim_instructions, smoke ? 2 : 5));
    results.push_back(fig03Replay(fig_instructions));
    results.push_back(traceReplay(min_seconds));
    results.push_back(traceReplayRuns(min_seconds));
    results.push_back(gridFig04("grid_fig04_nocache", false,
                                grid_instructions, grid_passes));
    results.push_back(gridFig04("grid_fig04_cached", true,
                                grid_instructions, grid_passes));
    {
        const GateResult &nocache = results[results.size() - 2];
        const GateResult &cached = results.back();
        std::cout << "perf_gate: grid_fig04 cached speedup = "
                  << cached.opsPerSec / nocache.opsPerSec << "x\n";
    }
    results.push_back(serveCodec(smoke ? 20 : 200, 5));
    {
        GateResult &codec = results.back();
        for (const GateResult &r : results)
            if (r.name == "sim_simd" && r.opsPerSec > 0.0)
                codec.simSimdRatio = codec.opsPerSec / r.opsPerSec;
        std::cout << "perf_gate: serve_codec = " << codec.opsPerSec
                  << " ops/s (" << codec.simSimdRatio
                  << "x sim_simd)\n";
    }

    TailResult tail = measureTail();
    SpeedupBaseline speedup_base = loadSpeedupBaseline();

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
    bool ok = checkTailAgainstBaseline(tail);
    ok &= checkSpeedupAgainstBaseline(results, speedup_base, smoke);
    return ok ? 0 : 1;
}
