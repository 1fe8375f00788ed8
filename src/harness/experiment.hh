/**
 * @file
 * Experiment descriptions and the grid runner: each of the paper's
 * figures is "all benchmarks x a set of machine variants".
 */

#ifndef WBSIM_HARNESS_EXPERIMENT_HH
#define WBSIM_HARNESS_EXPERIMENT_HH

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/hooks.hh"
#include "sim/machine_config.hh"
#include "sim/multicore.hh"
#include "sim/results.hh"
#include "workloads/profile.hh"

namespace wbsim
{

/** One machine variant within an experiment (one bar per group). */
struct ConfigVariant
{
    /** Short label, e.g. "retire-at-4" or "8k". */
    std::string label;
    MachineConfig machine;
};

/** One of the paper's figures/tables as a runnable experiment. */
struct Experiment
{
    /** Identity like "fig04". */
    std::string id;
    /** Paper caption, e.g. "Stall Cycles as a Function of Depth". */
    std::string title;
    /** Sub-caption, e.g. "retire-at-2, flush-full". */
    std::string subtitle;
    std::vector<ConfigVariant> variants;
};

/** Results indexed [benchmark][variant]. */
using ExperimentResults = std::vector<std::vector<SimResults>>;

/** Settings for running experiment grids. */
struct RunnerOptions
{
    /** Instructions per simulation; WBSIM_INSTRUCTIONS overrides. */
    Count instructions = 0;
    /** Warmup instructions before stats reset; WBSIM_WARMUP
     *  overrides. Warmup populates the caches so steady-state rates
     *  are measured (the paper's full-program runs amortise
     *  compulsory misses; short synthetic runs must warm up). */
    Count warmup = 0;
    /** Worker threads; WBSIM_THREADS overrides, 0 = all cores. */
    unsigned threads = 0;
    /** Workload generator seed. */
    std::uint64_t seed = 1;
    /** Materialize each (benchmark, seed, length) trace once and
     *  replay it for every variant, instead of regenerating it per
     *  cell. Without checkpoints, a trace is materialized on its
     *  key's second use within the grid cache's recent-key table: its
     *  first use streams from the generator, so a trace used once (a
     *  serve miss with its own seed) is never encoded or cached. */
    bool materialize = true;
    /** Reuse warm-state checkpoints between cells with identical
     *  (benchmark, seed, warmup, machine fingerprint), and system
     *  checkpoints between multi-core cells that also share a trace
     *  length; implies materialize. */
    bool checkpoints = true;
    /** Observability sinks attached to every measured simulation
     *  (after warmup, so metrics cover the measured region only).
     *  The sinks are not synchronised: leave detached (the default)
     *  for parallel grids, or run with threads = 1. */
    obs::ObsSink obs{};

    /** Resolve env overrides and defaults. */
    static RunnerOptions fromEnvironment();
};

/**
 * Run one benchmark on every machine of @p machines; the result of
 * machines[i] is element i. This is the one cell runner: both runOne
 * overloads are runCells with one machine.
 *
 * Every single-core machine is fed from one pass over the trace —
 * the grid cache's materialized trace, or the generator when neither
 * @p options.materialize nor @p options.checkpoints is set, or when
 * only materialize is and this is the trace key's first sighting
 * (RunnerOptions::materialize). Each simulator is warmed by
 * restoring its cached checkpoint (@p options.checkpoints) or by
 * executing the warmup records in lockstep with the others and then
 * resetStats(). Each batch of
 * measured run items then goes to every simulator in turn.
 * Multi-core machines run one by one through runMultiCore and yield
 * its aggregate() view. @p options.obs sinks attach to every
 * measured simulation (not synchronised: leave detached when the
 * results of several machines must not mix). Every single-core
 * machine's simulator stays alive for the whole pass, so memory
 * grows with @p machines.size(); callers with client-sized lists
 * split them (ServeServer::kMaxCellsPerPass). Every element is
 * bit-identical to runReference of its own machine; debug builds
 * verify each one. @p seed overrides options.seed.
 */
std::vector<SimResults>
runCells(const BenchmarkProfile &profile,
         std::span<const MachineConfig> machines,
         const RunnerOptions &options, std::uint64_t seed);

/** Run one benchmark on one machine (uncached path: the
 *  trace is generated in place and warmup is always simulated).
 *  @p obs sinks, if any, attach after warmup. */
SimResults
runOne(const BenchmarkProfile &profile, const MachineConfig &machine,
       Count instructions, std::uint64_t seed = 1, Count warmup = 0,
       const obs::ObsSink &obs = {});

/**
 * The per-record reference for one single-core cell: a freshly
 * generated trace fed through one Simulator::step() per record,
 * warmup included, with no trace cache, checkpoint or run item
 * involved. Debug builds diff every runCells cell against it.
 */
SimResults
runReference(const BenchmarkProfile &profile, const MachineConfig &machine,
             Count instructions, std::uint64_t seed, Count warmup);

/**
 * Run one benchmark on one machine through the process-wide grid
 * caches, honouring @p options.materialize / @p options.checkpoints
 * (runCells with one machine). Bit-identical to the uncached runOne
 * and to runReference (debug builds verify the latter on every
 * call). @p seed overrides options.seed so replicated runs can share
 * the cache.
 */
SimResults
runOne(const BenchmarkProfile &profile, const MachineConfig &machine,
       const RunnerOptions &options, std::uint64_t seed);

/**
 * Run a multi-core cell (machine.cores cores contending for the
 * shared L2 bus) and return the per-core detail. Core i runs the
 * workload generated from seed + i, so cores execute decorrelated
 * instances of the same benchmark profile. Honours
 * @p options.materialize through the grid trace cache (one cached
 * trace per core seed). With @p options.checkpoints and a warmup,
 * the cell resumes from its system checkpoint
 * (MultiCoreSystem::warmUp, keyed by benchmark, seed, warmup, trace
 * length and machine fingerprint; built on first use), which
 * implies materialize; an attached @p options.obs sink skips it,
 * since cores that cross their warmup early would publish before
 * the capture. @p options.obs sinks attach to every core (shared
 * registry = aggregated metrics) plus the bus timeline channel.
 *
 * runCells (and so both runOne overloads) delegates here when
 * machine.cores > 1 and returns the aggregate() view, so grids,
 * replication, serve cells, and caching treat topology like any
 * other machine axis.
 */
MultiCoreResults
runMultiCore(const BenchmarkProfile &profile,
             const MachineConfig &machine,
             const RunnerOptions &options, std::uint64_t seed);

/** Bytes the grid cache charges each entry beyond its value: the
 *  map node, the key and the shared_ptr control block. */
inline constexpr std::size_t kGridCacheEntryOverhead = 256;

/** Hit/build/eviction counters and footprint for the process-wide
 *  grid caches. */
struct GridCacheStats
{
    std::size_t traceBuilds = 0;
    std::size_t traceHits = 0;
    /** Lookups without checkpoints that found a trace key neither
     *  resident nor sighted recently, and streamed it instead. */
    std::size_t traceStreams = 0;
    /** Checkpoints of both kinds: single-core and system. */
    std::size_t checkpointBuilds = 0;
    std::size_t checkpointHits = 0;
    /** LRU evictions forced by the byte budget. */
    std::size_t traceEvictions = 0;
    std::size_t checkpointEvictions = 0;
    /** Bytes of resident traces and checkpoints: each trace's
     *  encodedBytes(), each checkpoint's SimSnapshot::bytes() and
     *  each system checkpoint's MultiCoreSnapshot::bytes(), plus
     *  kGridCacheEntryOverhead per entry. */
    std::size_t cachedBytes = 0;
    /** Current byte budget; 0 = unbounded. */
    std::size_t budgetBytes = 0;
};

/** Snapshot the grid-cache counters (tests and benchmarks). */
GridCacheStats gridCacheStats();

/**
 * Bound the process-wide grid caches to @p bytes, as cachedBytes
 * counts them (0 = unbounded, the CLI default). When a build pushes
 * the footprint over the budget, least-recently-used resolved entries
 * are evicted (in-flight builds are never evicted; waiters hold their
 * own futures, so eviction only forces a rebuild on the *next* ask).
 * Traces and checkpoints share the one budget and one LRU order.
 * Long-running services (wbsim-serve) must set a budget — an
 * unbounded cache over an unbounded query stream is a leak.
 */
void setGridCacheByteBudget(std::size_t bytes);

/** Drop all cached traces and checkpoints, forget the recently
 *  sighted trace keys, and zero the counters.
 *  Callers must not race this with an in-flight runExperiment. */
void clearGridCaches();

/** Run the full benchmark x variant grid, in parallel. */
ExperimentResults runExperiment(const Experiment &experiment,
                                const std::vector<BenchmarkProfile> &
                                    profiles,
                                const RunnerOptions &options);

/** Mean and sample standard deviation of a metric over replicas. */
struct MetricSummary
{
    double mean = 0.0;
    double sd = 0.0;
    std::size_t n = 0;
};

/**
 * Run one benchmark/machine cell with @p replicas different workload
 * seeds (baseSeed, baseSeed+1, ...), in parallel. Seed replication
 * quantifies how much of a result is workload-model noise versus
 * design signal.
 */
std::vector<SimResults> runReplicated(const BenchmarkProfile &profile,
                                      const MachineConfig &machine,
                                      const RunnerOptions &options,
                                      unsigned replicas);

/** Summarise a metric (e.g. &SimResults::pctTotalStalls). */
MetricSummary summarizeMetric(
    const std::vector<SimResults> &runs,
    const std::function<double(const SimResults &)> &metric);

} // namespace wbsim

#endif // WBSIM_HARNESS_EXPERIMENT_HH
