/**
 * @file
 * A sharded, byte-budgeted LRU map: the one cache behind the harness
 * grid cache (traces and warm checkpoints) and the serve result store
 * (finished cells as wire tokens).
 *
 * Keys spread over N shards, each with its own mutex, map, LRU list,
 * byte count and slice (budget / N) of the byte budget, so lookups of
 * different keys do not serialise on one lock. The caller charges
 * each entry a byte count; `insert` then evicts the shard's
 * least-recently-used entries, the new one included, until the shard
 * fits its slice, and reports each victim (key, charged bytes) to an
 * optional callback. A budget of 0 is unbounded.
 *
 * Thread-safety contract: shard state is touched only under the
 * shard's mutex, and values are copied out, so a shared_ptr value
 * outlives its eviction for as long as a caller holds it. Victims are
 * reported, and their values destroyed, after the shard lock is
 * released, so a callback may take the caller's locks. Each shard
 * keeps its own counters, so a lookup touches no state shared across
 * shards.
 */

#ifndef WBSIM_UTIL_LRU_CACHE_HH
#define WBSIM_UTIL_LRU_CACHE_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/mutex.hh"
#include "util/random.hh"

namespace wbsim
{

/** An LruCache's counters (monotonic; clear() keeps them) and its
 *  footprint. */
struct LruCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** New keys; replacing a resident key's value is not one. */
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    /** Bytes charged by the resident entries. */
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
    /** Total across shards; 0 = unbounded. */
    std::uint64_t budgetBytes = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
    struct NoEvictHook
    {
        void operator()(const Key &, std::size_t) const {}
    };

  public:
    /** @param shards clamped to [1, 256]. */
    explicit LruCache(std::size_t budgetBytes, std::size_t shards = 1)
        : budget_(budgetBytes)
    {
        shards = std::clamp<std::size_t>(shards, 1, 256);
        for (std::size_t i = 0; i < shards; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    /** A copy of @p key's value, or nullopt; a hit becomes the MRU
     *  entry. Hot: one mutex, one hash probe, no allocation. */
    std::optional<Value> find(const Key &key)
    {
        return shardFor(key).find(key);
    }

    /** Insert @p key, or replace its value, as the MRU entry charged
     *  @p bytes; then evict its shard down to the shard's slice,
     *  calling @p onEvict(key, bytes) per victim, oldest first. */
    template <typename OnEvict = NoEvictHook>
    void insert(const Key &key, Value value, std::size_t bytes,
                OnEvict &&onEvict = {})
    {
        Shard &shard = shardFor(key);
        shard.insert(key, std::move(value), bytes);
        evict(shard, onEvict);
    }

    /** Set the total budget (0 = unbounded) and evict every shard, in
     *  shard order, down to its new slice. */
    template <typename OnEvict = NoEvictHook>
    void setBudget(std::size_t budgetBytes, OnEvict &&onEvict = {})
    {
        budget_.store(budgetBytes, std::memory_order_relaxed);
        for (auto &shard : shards_)
            evict(*shard, onEvict);
    }

    /** Drop every entry, reporting none. */
    void clear()
    {
        for (auto &shard : shards_)
            shard->clear();
    }

    LruCacheStats stats() const
    {
        LruCacheStats out;
        out.budgetBytes = budget_.load(std::memory_order_relaxed);
        for (const auto &shard : shards_)
            shard->addTo(out);
        return out;
    }

  private:
    struct Node
    {
        Key key;
        Value value;
        std::size_t bytes = 0;
    };

    /** One shard. Only its own members touch its guarded state. */
    struct Shard
    {
        std::optional<Value> find(const Key &key)
        {
            MutexLock lock(mutex);
            auto it = map.find(key);
            if (it == map.end()) {
                ++counts.misses;
                return std::nullopt;
            }
            ++counts.hits;
            lru.splice(lru.end(), lru, it->second);
            return it->second->value;
        }

        void insert(const Key &key, Value value, std::size_t charge)
        {
            MutexLock lock(mutex);
            lru.push_back(Node{key, std::move(value), charge});
            auto [it, fresh] = map.try_emplace(key, std::prev(lru.end()));
            if (fresh) {
                ++counts.inserts;
            } else {
                counts.bytes -= it->second->bytes;
                lru.erase(std::exchange(it->second, std::prev(lru.end())));
            }
            counts.bytes += charge;
        }

        /** Move LRU entries into @p victims until the shard fits
         *  @p slice (0 = unbounded). */
        void evict(std::size_t slice, std::list<Node> &victims)
        {
            MutexLock lock(mutex);
            while (slice != 0 && counts.bytes > slice && !lru.empty()) {
                counts.bytes -= lru.front().bytes;
                ++counts.evictions;
                const bool mapped = map.erase(lru.front().key) == 1;
                wbsim_assert(mapped, "LruCache list out of sync with map");
                victims.splice(victims.end(), lru, lru.begin());
            }
        }

        void clear()
        {
            std::list<Node> dropped; // destroyed after the unlock
            MutexLock lock(mutex);
            map.clear();
            dropped.swap(lru);
            counts.bytes = 0;
        }

        void addTo(LruCacheStats &out)
        {
            MutexLock lock(mutex);
            out.hits += counts.hits;
            out.misses += counts.misses;
            out.inserts += counts.inserts;
            out.evictions += counts.evictions;
            out.bytes += counts.bytes;
            out.entries += map.size();
        }

        Mutex mutex;
        /** MRU at the back. */
        std::list<Node> lru WBSIM_GUARDED_BY(mutex);
        std::unordered_map<Key, typename std::list<Node>::iterator,
                           Hash> map WBSIM_GUARDED_BY(mutex);
        /** This shard's counters and bytes. */
        LruCacheStats counts WBSIM_GUARDED_BY(mutex);
    };

    Shard &shardFor(const Key &key)
    {
        if (shards_.size() == 1)
            return *shards_.front();
        // Re-mix so shard choice and bucket choice inside the shard
        // use decorrelated bits of the same hash.
        std::uint64_t h =
            hashCombine(std::uint64_t(Hash{}(key)), 0x5a17ull);
        return *shards_[h % shards_.size()];
    }

    /** Evict @p shard down to its slice; then, with no shard lock
     *  held, report the victims and free them. */
    template <typename OnEvict>
    void evict(Shard &shard, OnEvict &onEvict)
    {
        const std::size_t budget = budget_.load(std::memory_order_relaxed);
        std::list<Node> victims;
        shard.evict(budget == 0 ? 0
                                : std::max<std::size_t>(
                                      budget / shards_.size(), 1),
                    victims);
        for (const Node &victim : victims)
            onEvict(victim.key, victim.bytes);
    }

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::size_t> budget_;
};

} // namespace wbsim

#endif // WBSIM_UTIL_LRU_CACHE_HH
