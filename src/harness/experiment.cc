#include "harness/experiment.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "util/logging.hh"
#include "util/lru_cache.hh"
#include "util/mutex.hh"
#include "util/options.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workloads/generator.hh"

namespace wbsim
{

namespace
{

#ifdef NDEBUG
constexpr bool kDebugBuild = false;
#else
constexpr bool kDebugBuild = true;
#endif

/** Identity of one grid-cache entry. A trace is keyed by
 *  (benchmark, seed, length), a checkpoint by (benchmark, seed,
 *  warmup, machine state fingerprint), and a system checkpoint by
 *  all five: its early cores run measured records before the
 *  capture, so their trace length shapes it too. */
struct GridKey
{
    enum class Kind : std::uint8_t { Trace, Checkpoint, System };

    Kind kind = Kind::Trace;
    std::string benchmark;
    std::uint64_t seed = 0;
    /** A trace's length, or a checkpoint's warmup. */
    Count length = 0;
    /** A checkpoint's machine fingerprint; 0 for a trace. */
    std::uint64_t machine = 0;
    /** A system checkpoint's trace length; 0 otherwise. */
    Count traceLength = 0;

    bool operator==(const GridKey &) const = default;
};

struct GridKeyHash
{
    std::size_t
    operator()(const GridKey &key) const
    {
        std::uint64_t h = std::hash<std::string>{}(key.benchmark);
        h = hashCombine(h, std::uint64_t(key.kind));
        h = hashCombine(h, key.seed);
        h = hashCombine(h, key.length);
        h = hashCombine(h, key.machine);
        return std::size_t(hashCombine(h, key.traceLength));
    }
};

/**
 * The process-wide grid cache: materialized traces, warm-state
 * checkpoints and system checkpoints in one one-shard LruCache, so
 * every kind shares one byte budget and one LRU order. Lookups are
 * build-once: the first worker to ask for a key builds the value
 * while later askers block on a shared_future held beside the
 * resolved entries, so concurrent grid cells never duplicate work.
 *
 * A trace pays off only when it is replayed: building one costs a
 * generation plus an encode, against a generation alone to stream
 * it. Lookups with checkpoints always build (a checkpoint resumes
 * into the trace). Lookups without them (onReuse) admit a trace
 * on its second use: a first sighting only records the key's hash
 * in a small ring of recent keys and returns nothing, and the
 * caller streams from the generator.
 *
 * Under a byte budget (setGridCacheByteBudget), resolved entries of
 * either kind are evicted least recently used first. In-flight
 * builds are not in the LruCache, so they are never evicted, and an
 * evicted value stays valid for whoever holds it (shared_ptr), so a
 * too-small budget degrades throughput, never correctness.
 *
 * Thread-safety contract: everything, the LruCache included, is
 * touched only under mutex_, so no lookup sees a key both resolved
 * and in flight. Values are immutable once the future resolves
 * (shared_ptr<const>), so readers never race with the builder. CI's
 * `tsan` job runs the harness tests under ThreadSanitizer with no
 * suppressions.
 */
class GridCache
{
  public:
    using TracePtr = std::shared_ptr<const MaterializedTrace>;
    using SnapPtr = std::shared_ptr<const SimSnapshot>;
    using SystemPtr = std::shared_ptr<const MultiCoreSnapshot>;

    /**
     * The trace of (@p profile, @p seed, @p length): resident, or
     * built now. With @p onReuse, it is built only if its key was
     * asked for recently; a first sighting returns nullptr, and the
     * caller streams from the generator instead, so a trace used once
     * is never encoded, decoded or kept.
     */
    TracePtr trace(const BenchmarkProfile &profile, std::uint64_t seed,
                   Count length, bool onReuse = false)
    {
        GridKey key{GridKey::Kind::Trace, profile.name, seed, length, 0};
        return lookup<TracePtr>(
            key,
            [&]() {
                SyntheticSource source(profile, length, seed);
                return std::make_shared<const MaterializedTrace>(
                    MaterializedTrace::build(source));
            },
            [](const TracePtr &t) {
                return t->encodedBytes() + kGridCacheEntryOverhead;
            },
            onReuse);
    }

    SnapPtr checkpoint(const BenchmarkProfile &profile,
                       const MachineConfig &machine, std::uint64_t seed,
                       Count warmup, const MaterializedTrace &trace)
    {
        GridKey key{GridKey::Kind::Checkpoint, profile.name, seed,
                    warmup, machine.stateFingerprint()};
        return lookup<SnapPtr>(
            key,
            [&]() {
                Simulator simulator(machine);
                MaterializedCursor cursor(trace);
                Count done = simulator.consume(cursor, warmup);
                wbsim_assert(done == warmup,
                             "trace shorter than warmup");
                simulator.resetStats();
                return std::make_shared<const SimSnapshot>(
                    simulator.snapshot());
            },
            [](const SnapPtr &snap) {
                return snap->bytes() + kGridCacheEntryOverhead;
            });
    }

    /** The system checkpoint of @p machine: resident, or built now
     *  by running the system over @p sources (core i's cursor at the
     *  start of its trace of (@p profile, @p seed + i, @p length))
     *  until every core has crossed @p warmup. A build leaves the
     *  cursors wherever the capture found them. Counted as a
     *  checkpoint. */
    SystemPtr systemCheckpoint(const BenchmarkProfile &profile,
                               const MachineConfig &machine,
                               std::uint64_t seed, Count warmup,
                               Count length,
                               const std::vector<TraceSource *> &sources)
    {
        GridKey key{GridKey::Kind::System, profile.name, seed, warmup,
                    machine.stateFingerprint(), length};
        return lookup<SystemPtr>(
            key,
            [&]() {
                MultiCoreSystem warm(machine);
                return std::make_shared<const MultiCoreSnapshot>(
                    warm.warmUp(sources, warmup));
            },
            [](const SystemPtr &snap) {
                return snap->bytes() + kGridCacheEntryOverhead;
            });
    }

    GridCacheStats stats()
    {
        MutexLock lock(mutex_);
        GridCacheStats out = stats_;
        LruCacheStats resident = resolved_.stats();
        out.cachedBytes = resident.bytes;
        out.budgetBytes = resident.budgetBytes;
        return out;
    }

    void setByteBudget(std::size_t bytes)
    {
        MutexLock lock(mutex_);
        resolved_.setBudget(bytes, EvictionCounter{stats_});
    }

    void clear()
    {
        MutexLock lock(mutex_);
        resolved_.clear();
        building_.clear();
        recent_ = {};
        recentCount_ = 0;
        stats_ = GridCacheStats{};
    }

  private:
    /** A resolved entry: a trace or a checkpoint of either kind. */
    using Value = std::variant<TracePtr, SnapPtr, SystemPtr>;

    /** Trace keys whose first sighting streamed, remembered so a
     *  second sighting builds: hashes of the last kRecentTraceKeys,
     *  a ring. */
    static constexpr std::size_t kRecentTraceKeys = 64;

    /** Whether @p key was sighted recently; if not, remember it. */
    bool sightedBefore(const GridKey &key) WBSIM_REQUIRES(mutex_)
    {
        const std::uint64_t hash = GridKeyHash{}(key);
        const auto seen = recent_.begin()
            + std::ptrdiff_t(std::min(recentCount_, recent_.size()));
        if (std::find(recent_.begin(), seen, hash) != seen)
            return true;
        recent_[recentCount_++ % recent_.size()] = hash;
        return false;
    }

    /** The LruCache victim callback: counts evictions by kind. */
    struct EvictionCounter
    {
        GridCacheStats &stats;

        void operator()(const GridKey &key, std::size_t) const
        {
            ++(key.kind == GridKey::Kind::Trace ? stats.traceEvictions
                                                : stats.checkpointEvictions);
        }
    };

    /** Find or build @p key's value. With @p onReuse, a key neither
     *  resident, in flight nor sighted recently builds nothing: the
     *  call returns nullptr and counts a stream. */
    template <typename Ptr, typename Build, typename SizeOf>
    Ptr lookup(const GridKey &key, Build build, SizeOf sizeOf,
               bool onReuse = false)
    {
        const bool isTrace = key.kind == GridKey::Kind::Trace;
        std::promise<Value> promise;
        std::shared_future<Value> future;
        {
            MutexLock lock(mutex_);
            if (std::optional<Value> hit = resolved_.find(key)) {
                ++(isTrace ? stats_.traceHits : stats_.checkpointHits);
                return std::get<Ptr>(*hit);
            }
            auto it = building_.find(key);
            if (it != building_.end()) {
                ++(isTrace ? stats_.traceHits : stats_.checkpointHits);
                future = it->second;
            } else if (onReuse && !sightedBefore(key)) {
                ++stats_.traceStreams;
                return nullptr;
            } else {
                ++(isTrace ? stats_.traceBuilds
                           : stats_.checkpointBuilds);
                building_.emplace(key, promise.get_future().share());
            }
        }
        if (future.valid())
            return std::get<Ptr>(future.get());

        Ptr value = build();
        promise.set_value(value);
        MutexLock lock(mutex_);
        // Publish only while the key is still in flight. A builder
        // that outlived a clear() may publish for a newer build of
        // its key instead: both values are the same function of the
        // key, and the newer builder then finds nothing to publish.
        if (building_.erase(key) != 0)
            resolved_.insert(key, value, sizeOf(value),
                             EvictionCounter{stats_});
        return value;
    }

    /** Taken before the resolved_ cache's shard locks, which are
     *  private to LruCache and so cannot be named in an
     *  WBSIM_ACQUIRES_BEFORE here; TSan checks the order. */
    Mutex mutex_;
    /** Resolved entries of both kinds. */
    LruCache<GridKey, Value, GridKeyHash> resolved_
        WBSIM_GUARDED_BY(mutex_){0};
    std::unordered_map<GridKey, std::shared_future<Value>, GridKeyHash>
        building_ WBSIM_GUARDED_BY(mutex_);
    GridCacheStats stats_ WBSIM_GUARDED_BY(mutex_);
    std::array<std::uint64_t, kRecentTraceKeys> recent_
        WBSIM_GUARDED_BY(mutex_){};
    /** Keys ever written to recent_ (the ring's next slot, mod its
     *  size). */
    std::size_t recentCount_ WBSIM_GUARDED_BY(mutex_) = 0;
};

GridCache &
gridCache()
{
    static GridCache cache;
    return cache;
}

} // namespace

RunnerOptions
RunnerOptions::fromEnvironment()
{
    RunnerOptions options;
    options.instructions = envUint("WBSIM_INSTRUCTIONS", 1'000'000);
    options.warmup =
        envUint("WBSIM_WARMUP", options.instructions / 2);
    options.threads = defaultThreads();
    options.seed = envUint("WBSIM_SEED", 1);
    return options;
}

MultiCoreResults
runMultiCore(const BenchmarkProfile &profile,
             const MachineConfig &machine,
             const RunnerOptions &options, std::uint64_t seed)
{
    wbsim_assert(machine.cores >= 1, "runMultiCore with no cores");
    Count length = options.instructions + options.warmup;
    MultiCoreSystem system(machine);
    if (options.obs.attached()) {
        for (unsigned i = 0; i < system.cores(); ++i)
            system.attachObs(i, options.obs);
        system.attachBusTimeline(options.obs.timeline);
    }

    MultiCoreResults result;
    // A system checkpoint resumes every core past its warmup, so it
    // needs the cached traces. Sinks skip it: the cores that cross
    // early measure, and would publish, before the capture.
    const bool fromCheckpoint = options.checkpoints
        && options.warmup > 0 && !options.obs.attached();
    if (fromCheckpoint || options.materialize) {
        // One cached trace per core seed.
        GridCache &cache = gridCache();
        std::vector<GridCache::TracePtr> traces;
        std::vector<std::unique_ptr<MaterializedCursor>> cursors;
        std::vector<TraceSource *> sources;
        for (unsigned i = 0; i < system.cores(); ++i) {
            traces.push_back(cache.trace(profile, seed + i, length));
            cursors.push_back(
                std::make_unique<MaterializedCursor>(*traces.back()));
            sources.push_back(cursors.back().get());
        }
        if (fromCheckpoint) {
            // Built on first use, then restored like any hit.
            GridCache::SystemPtr snap = cache.systemCheckpoint(
                profile, machine, seed, options.warmup, length, sources);
            for (unsigned i = 0; i < system.cores(); ++i)
                cursors[i]->seek(snap->cores[i].records);
            result = system.resume(*snap, sources);
        } else {
            result = system.run(sources, options.warmup);
        }
    } else {
        std::vector<std::unique_ptr<SyntheticSource>> generators;
        std::vector<TraceSource *> sources;
        for (unsigned i = 0; i < system.cores(); ++i) {
            generators.push_back(std::make_unique<SyntheticSource>(
                profile, length, seed + i));
            sources.push_back(generators.back().get());
        }
        result = system.run(sources, options.warmup);
    }

    if constexpr (kDebugBuild) {
        // Shadow every cell with the reference: regenerated traces
        // fed one record per scheduling step. Neither trace replay
        // nor private-prefix batching may change a bit of any core's
        // results.
        MultiCoreSystem reference_system(
            machine, MultiCoreSystem::Schedule::PerRecord);
        std::vector<std::unique_ptr<SyntheticSource>> generators;
        std::vector<TraceSource *> sources;
        for (unsigned i = 0; i < reference_system.cores(); ++i) {
            generators.push_back(std::make_unique<SyntheticSource>(
                profile, length, seed + i));
            sources.push_back(generators.back().get());
        }
        MultiCoreResults reference =
            reference_system.run(sources, options.warmup);
        wbsim_assert(result.perCore == reference.perCore
                     && result.bus == reference.bus,
                     "multi-core cell diverged from the uncached "
                     "per-record reference run (workload ",
                     profile.name, ", machine ", machine.describe(),
                     ")");
    }
    return result;
}

SimResults
runReference(const BenchmarkProfile &profile, const MachineConfig &machine,
             Count instructions, std::uint64_t seed, Count warmup)
{
    SyntheticSource source(profile, instructions + warmup, seed);
    Simulator simulator(machine);
    TraceRecord record;
    for (Count i = 0; i < warmup && source.next(record); ++i)
        simulator.step(record);
    if (warmup > 0)
        simulator.resetStats();
    while (source.next(record))
        simulator.step(record);
    simulator.drain();
    return simulator.results(source.name());
}

namespace
{

/** Debug builds: panic unless @p result equals the per-record
 *  reference of its cell. */
void
shadowCheck(const SimResults &result, const BenchmarkProfile &profile,
            const MachineConfig &machine, Count instructions,
            std::uint64_t seed, Count warmup)
{
    if constexpr (kDebugBuild) {
        // Neither run items (budgeted at the warmup and run limits),
        // nor trace replay, nor checkpoint resume, nor sharing one
        // pass over the trace with other machines may change a
        // single bit of any result.
        SimResults reference =
            runReference(profile, machine, instructions, seed, warmup);
        wbsim_assert(result == reference,
                     "grid cell diverged from the per-record "
                     "reference run (workload ",
                     profile.name, ", machine ", machine.describe(),
                     ")");
    }
}

} // namespace

std::vector<SimResults>
runCells(const BenchmarkProfile &profile,
         std::span<const MachineConfig> machines,
         const RunnerOptions &options, std::uint64_t seed)
{
    std::vector<SimResults> results(machines.size());
    std::vector<std::size_t> single;
    std::vector<std::unique_ptr<Simulator>> owned;
    std::vector<Simulator *> sims;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        if (machines[i].cores > 1) {
            results[i] = runMultiCore(profile, machines[i], options, seed)
                             .aggregate();
        } else {
            single.push_back(i);
            owned.push_back(std::make_unique<Simulator>(machines[i]));
            sims.push_back(owned.back().get());
        }
    }
    if (sims.empty())
        return results;

    // Checkpoints imply materialize: a checkpoint is built from, and
    // resumes into, the cached trace. Without them a trace is cached
    // on its key's second use; a first use streams from the
    // generator.
    GridCache &cache = gridCache();
    const Count length = options.instructions + options.warmup;
    GridCache::TracePtr trace;
    if (options.checkpoints)
        trace = cache.trace(profile, seed, length);
    else if (options.materialize)
        trace = cache.trace(profile, seed, length, /*onReuse=*/true);
    std::optional<MaterializedCursor> cursor;
    std::optional<SyntheticSource> generator;
    TraceSource *source = nullptr;
    if (trace)
        source = &cursor.emplace(*trace);
    else
        source = &generator.emplace(profile, length, seed);

    if (options.warmup > 0) {
        if (options.checkpoints) {
            for (std::size_t k = 0; k < sims.size(); ++k)
                sims[k]->restore(*cache.checkpoint(
                    profile, machines[single[k]], seed, options.warmup,
                    *trace));
            cursor->seek(options.warmup);
        } else {
            Simulator::consume(*source, sims, options.warmup);
            for (Simulator *sim : sims)
                sim->resetStats();
        }
    }
    if (options.obs.attached())
        for (Simulator *sim : sims)
            sim->attachObs(options.obs);
    Simulator::consume(*source, sims, TraceSource::kNoBudget);

    for (std::size_t k = 0; k < sims.size(); ++k) {
        sims[k]->drain();
        SimResults &result = results[single[k]];
        result = sims[k]->results(source->name());
        shadowCheck(result, profile, machines[single[k]],
                    options.instructions, seed, options.warmup);
    }
    return results;
}

SimResults
runOne(const BenchmarkProfile &profile, const MachineConfig &machine,
       Count instructions, std::uint64_t seed, Count warmup,
       const obs::ObsSink &obs)
{
    RunnerOptions options;
    options.instructions = instructions;
    options.warmup = warmup;
    options.materialize = false;
    options.checkpoints = false;
    options.obs = obs;
    return runOne(profile, machine, options, seed);
}

SimResults
runOne(const BenchmarkProfile &profile, const MachineConfig &machine,
       const RunnerOptions &options, std::uint64_t seed)
{
    return runCells(profile, {&machine, 1}, options, seed).front();
}

GridCacheStats
gridCacheStats()
{
    return gridCache().stats();
}

void
setGridCacheByteBudget(std::size_t bytes)
{
    gridCache().setByteBudget(bytes);
}

void
clearGridCaches()
{
    gridCache().clear();
}

ExperimentResults
runExperiment(const Experiment &experiment,
              const std::vector<BenchmarkProfile> &profiles,
              const RunnerOptions &options)
{
    const std::size_t benchmarks = profiles.size();
    const std::size_t variants = experiment.variants.size();
    ExperimentResults results(benchmarks,
                              std::vector<SimResults>(variants));
    parallelFor(benchmarks * variants, options.threads,
                [&](std::size_t index) {
                    std::size_t b = index / variants;
                    std::size_t v = index % variants;
                    results[b][v] =
                        runOne(profiles[b],
                               experiment.variants[v].machine,
                               options, options.seed);
                });
    return results;
}

std::vector<SimResults>
runReplicated(const BenchmarkProfile &profile,
              const MachineConfig &machine,
              const RunnerOptions &options, unsigned replicas)
{
    std::vector<SimResults> runs(replicas);
    parallelFor(replicas, options.threads, [&](std::size_t i) {
        runs[i] = runOne(profile, machine, options, options.seed + i);
    });
    return runs;
}

MetricSummary
summarizeMetric(const std::vector<SimResults> &runs,
                const std::function<double(const SimResults &)> &metric)
{
    MetricSummary summary;
    summary.n = runs.size();
    if (runs.empty())
        return summary;
    double sum = 0.0;
    for (const SimResults &r : runs)
        sum += metric(r);
    summary.mean = sum / double(runs.size());
    if (runs.size() > 1) {
        double ss = 0.0;
        for (const SimResults &r : runs) {
            double d = metric(r) - summary.mean;
            ss += d * d;
        }
        summary.sd = std::sqrt(ss / double(runs.size() - 1));
    }
    return summary;
}

} // namespace wbsim
