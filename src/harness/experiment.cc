#include "harness/experiment.hh"

#include <cmath>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "sim/simulator.hh"
#include "trace/materialized_trace.hh"
#include "util/logging.hh"
#include "util/options.hh"
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

/** Map/key/control-block overhead charged per cached entry. */
constexpr std::size_t kEntryOverhead = 256;

/**
 * Approximate resident bytes of one warm-state checkpoint. The
 * dominant term is per-line cache state (tag + status per line in
 * every modelled cache); the rest (write buffer, ports, RNG) is a
 * small fixed cost. An estimate is enough here: the budget bounds
 * the cache to the right order of magnitude, it is not an allocator.
 */
std::size_t
approxSnapshotBytes(const MachineConfig &machine)
{
    auto lines = [](const CacheGeometry &g) {
        return std::size_t(g.sizeBytes / g.lineBytes);
    };
    std::size_t count = lines(machine.l1d);
    if (!machine.perfectICache)
        count += lines(machine.l1i);
    if (!machine.perfectL2)
        count += lines(machine.l2);
    return count * 32 + 4 * 1024 + kEntryOverhead;
}

/**
 * The process-wide grid caches: materialized traces keyed by
 * (benchmark, seed, length) and warm-state checkpoints keyed by
 * (benchmark, seed, warmup, machine state fingerprint). Both are
 * build-once: the first worker to ask for a key builds the value
 * while later askers block on a shared_future, so concurrent grid
 * cells never duplicate work.
 *
 * The cache is byte-bounded: when a budget is set (WBSIM_GRID_CACHE_MB
 * or setGridCacheByteBudget) and a build pushes the resident
 * footprint past it, the least-recently-used *resolved* entries are
 * evicted across both maps until the footprint fits. In-flight
 * builds are never evicted, and eviction never invalidates a value a
 * caller already holds (values are shared_ptr; the map only drops
 * its reference), so a too-small budget degrades throughput, never
 * correctness.
 *
 * Thread-safety contract: maps, LRU list and counters are only
 * touched under mutex_ (WBSIM_GUARDED_BY on every such member, so
 * wbsim-lint's WL-LOCK-GUARD proves it statically); the values are
 * immutable once the future resolves (shared_ptr<const>), so
 * readers never race with the builder. Verified race-free by CI's
 * `tsan` job, which runs the harness tests under ThreadSanitizer
 * with no suppressions.
 */
class GridCache
{
  public:
    using TracePtr = std::shared_ptr<const MaterializedTrace>;
    using SnapPtr = std::shared_ptr<const SimSnapshot>;

    GridCache()
    {
        budget_ = std::size_t(envUint("WBSIM_GRID_CACHE_MB", 0))
                  * 1024 * 1024;
    }

    TracePtr trace(const BenchmarkProfile &profile, std::uint64_t seed,
                   Count length)
    {
        std::ostringstream key;
        key << profile.name << '#' << seed << '#' << length;
        return dedupe<TracePtr>(
            /*isTrace=*/true, key.str(),
            [&]() {
                SyntheticSource source(profile, length, seed);
                return std::make_shared<const MaterializedTrace>(
                    MaterializedTrace::build(source));
            },
            [](const TracePtr &t) {
                return t->encodedBytes() + kEntryOverhead;
            });
    }

    SnapPtr checkpoint(const BenchmarkProfile &profile,
                       const MachineConfig &machine, std::uint64_t seed,
                       Count warmup, const MaterializedTrace &trace)
    {
        std::ostringstream key;
        key << profile.name << '#' << seed << '#' << warmup << '#'
            << machine.stateFingerprint();
        return dedupe<SnapPtr>(
            /*isTrace=*/false, key.str(),
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
            [&machine](const SnapPtr &) {
                return approxSnapshotBytes(machine);
            });
    }

    GridCacheStats stats()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GridCacheStats out = stats_;
        out.cachedBytes = bytes_;
        out.budgetBytes = budget_;
        return out;
    }

    void setByteBudget(std::size_t bytes)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        budget_ = bytes;
        evictLocked();
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        traces_.clear();
        snapshots_.clear();
        lru_.clear();
        bytes_ = 0;
        ++generation_;
        stats_ = GridCacheStats{};
    }

  private:
    /** MRU at the back; only resolved entries are listed. */
    using LruList = std::list<std::pair<bool, std::string>>;

    template <typename Ptr> struct Slot
    {
        std::shared_future<Ptr> future;
        std::size_t bytes = 0;
        bool resolved = false;
        /** clear() epoch at insert; a stale builder must not book
         *  bytes against a slot re-created after a clear(). */
        std::uint64_t generation = 0;
        LruList::iterator lru{};
    };

    template <typename Ptr>
    using Map = std::unordered_map<std::string, Slot<Ptr>>;

    /** The map holding entries of @p Ptr's kind. Tag-pointer
     *  overloads (not a template) so the WBSIM_REQUIRES contract is
     *  visible to the analyzer: the returned reference is guarded
     *  state and every caller selects it under mutex_. */
    WBSIM_REQUIRES(mutex_) Map<TracePtr> &mapFor(const TracePtr *)
    {
        return traces_;
    }
    WBSIM_REQUIRES(mutex_) Map<SnapPtr> &mapFor(const SnapPtr *)
    {
        return snapshots_;
    }

    template <typename Ptr, typename Build, typename SizeOf>
    Ptr dedupe(bool isTrace, const std::string &key, Build build,
               SizeOf sizeOf)
    {
        std::promise<Ptr> promise;
        std::shared_future<Ptr> future;
        bool is_builder = false;
        std::uint64_t my_generation = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Map<Ptr> &map = mapFor(static_cast<const Ptr *>(nullptr));
            auto it = map.find(key);
            if (it == map.end()) {
                future = promise.get_future().share();
                Slot<Ptr> slot;
                slot.future = future;
                slot.generation = generation_;
                my_generation = generation_;
                map.emplace(key, std::move(slot));
                is_builder = true;
                ++(isTrace ? stats_.traceBuilds
                           : stats_.checkpointBuilds);
            } else {
                future = it->second.future;
                ++(isTrace ? stats_.traceHits
                           : stats_.checkpointHits);
                if (it->second.resolved)
                    lru_.splice(lru_.end(), lru_, it->second.lru);
            }
        }
        if (!is_builder)
            return future.get();

        Ptr value = build();
        promise.set_value(value);
        std::lock_guard<std::mutex> lock(mutex_);
        Map<Ptr> &map = mapFor(static_cast<const Ptr *>(nullptr));
        auto it = map.find(key);
        if (it != map.end() && !it->second.resolved
            && it->second.generation == my_generation) {
            it->second.resolved = true;
            it->second.bytes = sizeOf(value);
            it->second.lru =
                lru_.insert(lru_.end(), {isTrace, key});
            bytes_ += it->second.bytes;
            evictLocked();
        }
        return value;
    }

    WBSIM_REQUIRES(mutex_) void evictLocked()
    {
        while (budget_ != 0 && bytes_ > budget_ && !lru_.empty()) {
            const auto &[isTrace, key] = lru_.front();
            if (isTrace)
                evictFrom(traces_, key, stats_.traceEvictions);
            else
                evictFrom(snapshots_, key,
                          stats_.checkpointEvictions);
            lru_.pop_front();
        }
    }

    template <typename Ptr>
    WBSIM_REQUIRES(mutex_) void evictFrom(Map<Ptr> &map,
                                          const std::string &key,
                                          std::size_t &evictions)
    {
        auto it = map.find(key);
        wbsim_assert(it != map.end() && it->second.resolved,
                     "grid-cache LRU entry out of sync with its map");
        bytes_ -= it->second.bytes;
        map.erase(it);
        ++evictions;
    }

    std::mutex mutex_;
    WBSIM_GUARDED_BY(mutex_) Map<TracePtr> traces_;
    WBSIM_GUARDED_BY(mutex_) Map<SnapPtr> snapshots_;
    WBSIM_GUARDED_BY(mutex_) LruList lru_;
    WBSIM_GUARDED_BY(mutex_) GridCacheStats stats_;
    WBSIM_GUARDED_BY(mutex_) std::size_t bytes_ = 0;
    WBSIM_GUARDED_BY(mutex_) std::size_t budget_ = 0;
    WBSIM_GUARDED_BY(mutex_) std::uint64_t generation_ = 0;
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
    options.materialize = envUint("WBSIM_MATERIALIZE", 1) != 0;
    options.checkpoints = envUint("WBSIM_CHECKPOINTS", 1) != 0;
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
    if (options.materialize) {
        // One cached trace per core seed; checkpoints are bypassed
        // (a warm snapshot captures one core, not a system).
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
        result = system.run(sources, options.warmup);
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
    // resumes into, the cached trace.
    GridCache &cache = gridCache();
    const Count length = options.instructions + options.warmup;
    GridCache::TracePtr trace;
    std::optional<MaterializedCursor> cursor;
    std::optional<SyntheticSource> generator;
    TraceSource *source = nullptr;
    if (options.materialize || options.checkpoints) {
        trace = cache.trace(profile, seed, length);
        source = &cursor.emplace(*trace);
    } else {
        source = &generator.emplace(profile, length, seed);
    }

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
