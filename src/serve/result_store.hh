/**
 * @file
 * The serve-side result store: finished grid cells, each held as its
 * wire token, in a 16-shard LruCache (util/lru_cache.hh, which gives
 * the thread-safety contract). The `tsan` CI job runs the serve
 * tests, loopback tests included, over it under ThreadSanitizer.
 *
 * The store sits *in front of* the admission queue: a connection
 * thread that finds every cell of a request here answers immediately
 * without touching the worker pool, which is what makes a warm sweep
 * cheap (the cached >= 2x throughput bound the load generator
 * enforces). A value is the cell's result_json token exactly as it
 * goes on the wire (wire.hh, encodeResultToken), rendered once by the
 * worker that simulated the cell, so a hit appends stored bytes and
 * renders nothing (DESIGN.md §13). The grid cache de-duplicates a
 * cell's *inputs* (traces, warm checkpoints); this store memoises its
 * *output*, keyed by the full cell identity.
 */

#ifndef WBSIM_SERVE_RESULT_STORE_HH
#define WBSIM_SERVE_RESULT_STORE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "util/lru_cache.hh"
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
};

struct CellKeyHash
{
    std::size_t operator()(const CellKey &key) const;
};

/** `bytes` counts each entry's token, key and bookkeeping. */
using ResultStoreStats = LruCacheStats;

/** Sharded byte-bounded LRU map: CellKey -> result_json token. */
class ResultStore
{
  public:
    /** An immutable wire token, shared by the store and every
     *  response that carries it. */
    using TokenPtr = std::shared_ptr<const std::string>;

    explicit ResultStore(std::size_t budgetBytes,
                         std::size_t shards = 16)
        : cache_(budgetBytes, shards)
    {
    }

    /** The cached token, or nullptr. A hit refreshes LRU. Hot: one
     *  mutex, one hash probe, no allocation. */
    TokenPtr
    find(const CellKey &key)
    {
        return cache_.find(key).value_or(nullptr);
    }

    /** Insert (or refresh) @p key, charged its token's bytes; evicts
     *  LRU entries of the shard if its byte slice overflows. */
    void insert(const CellKey &key, TokenPtr token);

    ResultStoreStats stats() const { return cache_.stats(); }

    /** Drop every entry (tests); counters keep accumulating. */
    void clear() { cache_.clear(); }

  private:
    LruCache<CellKey, TokenPtr, CellKeyHash> cache_;
};

} // namespace wbsim::serve

#endif // WBSIM_SERVE_RESULT_STORE_HH
