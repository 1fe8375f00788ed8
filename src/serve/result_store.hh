/**
 * @file
 * The serve-side result store: a sharded, byte-bounded LRU cache of
 * finished grid cells, each held as its wire token.
 *
 * The store sits *in front of* the admission queue: a connection
 * thread that finds every cell of a request here answers immediately
 * without touching the worker pool, which is what makes a warm sweep
 * cheap (the cached >= 2x throughput bound the load generator
 * enforces). A value is the cell's result_json token exactly as it
 * goes on the wire (wire.hh, encodeResultToken), rendered once by the
 * worker that simulated the cell, so a hit appends stored bytes and
 * renders nothing (DESIGN.md §13). It complements the process-wide
 * grid cache — the grid cache de-duplicates *inputs* (traces, warm
 * checkpoints) across in-flight builds, this store memoises
 * *outputs* keyed by the full cell identity.
 *
 * Sharding: keys are spread over N independent shards, each with its
 * own mutex, LRU list, and slice of the byte budget, so thousands of
 * concurrent lookups do not serialise on one lock.
 *
 * Thread-safety contract: all shard state is touched only under that
 * shard's mutex; values are shared_ptr<const std::string>, so a
 * token handed out before an eviction stays valid for as long as
 * the caller holds it, on whichever thread holds it. Counters are
 * relaxed atomics — they feed stats, not control flow. CI's `tsan` job runs the loopback tests over
 * this store with no suppressions.
 */

#ifndef WBSIM_SERVE_RESULT_STORE_HH
#define WBSIM_SERVE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/lint.hh"
#include "util/types.hh"

namespace wbsim::serve
{

/** Identity of one grid cell. The benchmark travels as its exact
 *  name (no hash aliasing between benchmarks), the machine as its
 *  full state fingerprint. */
struct CellKey
{
    std::string benchmark;
    std::uint64_t machineFingerprint = 0;
    std::uint64_t seed = 0;
    Count instructions = 0;
    Count warmup = 0;

    bool operator==(const CellKey &) const = default;
    std::uint64_t hash() const;
};

/** Counters for one ResultStore (monotonic since construction). */
struct ResultStoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /** Resident bytes across all shards: each entry's token plus
     *  its key and bookkeeping overhead. */
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
    std::uint64_t budgetBytes = 0;
};

/** Sharded byte-bounded LRU map: CellKey -> result_json token. */
class ResultStore
{
  public:
    /** An immutable wire token, shared by the store and every
     *  response that carries it. */
    using TokenPtr = std::shared_ptr<const std::string>;

    /** @param budgetBytes total across shards; 0 = unbounded.
     *  @param shards clamped to [1, 256]. */
    explicit ResultStore(std::size_t budgetBytes,
                         std::size_t shards = 16);

    /** The cached token, or nullptr. A hit refreshes LRU. Hot: one
     *  mutex, one hash probe, no allocation. */
    WBSIM_HOT TokenPtr find(const CellKey &key);

    /** Insert (or refresh) @p key, charged its token's bytes; evicts
     *  LRU entries of the shard if its byte slice overflows. */
    void insert(const CellKey &key, TokenPtr token);

    ResultStoreStats stats() const;

    /** Drop every entry (tests); counters keep accumulating. */
    void clear();

  private:
    struct Shard
    {
        std::mutex mutex;
        /** MRU at the back. */
        WBSIM_GUARDED_BY(mutex) std::list<CellKey> lru;
        struct Slot
        {
            TokenPtr token;
            std::size_t bytes = 0;
            std::list<CellKey>::iterator lru;
        };
        struct KeyHash
        {
            std::size_t
            operator()(const CellKey &key) const
            {
                return std::size_t(key.hash());
            }
        };
        WBSIM_GUARDED_BY(mutex)
        std::unordered_map<CellKey, Slot, KeyHash> map;
        WBSIM_GUARDED_BY(mutex) std::size_t bytes = 0;
    };

    Shard &shardFor(const CellKey &key);
    static std::size_t entryBytes(const CellKey &key,
                                  const std::string &token);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t shardBudget_ = 0;
    std::size_t budget_ = 0;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace wbsim::serve

#endif // WBSIM_SERVE_RESULT_STORE_HH
