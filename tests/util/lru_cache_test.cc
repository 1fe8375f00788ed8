/**
 * @file
 * LruCache tests: a seeded differential run of random
 * insert/find/clear/budget-change sequences against a naive
 * vector-scan LRU model (same values, victims in the same order,
 * same byte totals and counters), and a concurrent hammer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "util/lru_cache.hh"
#include "util/random.hh"

namespace wbsim
{
namespace
{

using Cache = LruCache<std::uint64_t, std::uint64_t>;

/** One evicted entry, as the victim callback reports it. */
struct Victim
{
    std::uint64_t key = 0;
    std::size_t bytes = 0;

    bool operator==(const Victim &) const = default;
};

/** The specification: per shard, a vector in LRU order (LRU at the
 *  front), scanned on every operation. The shard of a key is the
 *  documented re-mix of its hash. */
class ModelLru
{
  public:
    ModelLru(std::size_t budget, std::size_t shards) : shards_(shards)
    {
        setSlice(budget);
    }

    std::optional<std::uint64_t>
    find(std::uint64_t key)
    {
        std::vector<Entry> &shard = shardOf(key);
        auto it = locate(shard, key);
        if (it == shard.end()) {
            ++stats_.misses;
            return std::nullopt;
        }
        Entry entry = *it;
        shard.erase(it);
        shard.push_back(entry);
        ++stats_.hits;
        return entry.value;
    }

    std::vector<Victim>
    insert(std::uint64_t key, std::uint64_t value, std::size_t bytes)
    {
        std::vector<Entry> &shard = shardOf(key);
        auto it = locate(shard, key);
        if (it != shard.end())
            shard.erase(it);
        else
            ++stats_.inserts;
        shard.push_back({key, value, bytes});
        std::vector<Victim> victims;
        evict(shard, victims);
        return victims;
    }

    std::vector<Victim>
    setBudget(std::size_t budget)
    {
        setSlice(budget);
        std::vector<Victim> victims;
        for (std::vector<Entry> &shard : shards_)
            evict(shard, victims);
        return victims;
    }

    void
    clear()
    {
        for (std::vector<Entry> &shard : shards_)
            shard.clear();
    }

    LruCacheStats
    stats() const
    {
        LruCacheStats out = stats_;
        out.budgetBytes = budget_;
        for (const std::vector<Entry> &shard : shards_) {
            out.entries += shard.size();
            out.bytes += bytesOf(shard);
        }
        return out;
    }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
        std::size_t bytes = 0;
    };

    static std::size_t
    bytesOf(const std::vector<Entry> &shard)
    {
        std::size_t total = 0;
        for (const Entry &entry : shard)
            total += entry.bytes;
        return total;
    }

    static std::vector<Entry>::iterator
    locate(std::vector<Entry> &shard, std::uint64_t key)
    {
        return std::find_if(shard.begin(), shard.end(),
                            [key](const Entry &e) { return e.key == key; });
    }

    std::vector<Entry> &
    shardOf(std::uint64_t key)
    {
        if (shards_.size() == 1)
            return shards_.front();
        std::uint64_t h =
            hashCombine(std::hash<std::uint64_t>{}(key), 0x5a17ull);
        return shards_[h % shards_.size()];
    }

    void
    setSlice(std::size_t budget)
    {
        budget_ = budget;
        slice_ = budget == 0
                     ? 0
                     : std::max<std::size_t>(budget / shards_.size(), 1);
    }

    void
    evict(std::vector<Entry> &shard, std::vector<Victim> &victims)
    {
        while (slice_ != 0 && bytesOf(shard) > slice_) {
            victims.push_back({shard.front().key, shard.front().bytes});
            shard.erase(shard.begin());
            ++stats_.evictions;
        }
    }

    std::vector<std::vector<Entry>> shards_;
    std::size_t budget_ = 0;
    std::size_t slice_ = 0;
    LruCacheStats stats_;
};

void
expectSameStats(const LruCacheStats &got, const LruCacheStats &want)
{
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.inserts, want.inserts);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.entries, want.entries);
    EXPECT_EQ(got.budgetBytes, want.budgetBytes);
}

TEST(LruCache, MatchesVectorScanModelOnRandomSequences)
{
    for (std::uint64_t seed : {1ull, 7ull, 1009ull}) {
        for (std::size_t shards : {1u, 2u, 5u}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " shards " << shards);
            Rng rng(seed);
            // Budgets from "everything evicts" through "nothing
            // does"; keys from a small range so finds hit and
            // inserts replace.
            auto drawBudget = [&rng]() -> std::size_t {
                return rng.nextBelow(4) == 0 ? 0 : rng.nextBelow(600);
            };
            const std::size_t budget = drawBudget();
            Cache cache(budget, shards);
            ModelLru model(budget, shards);
            std::vector<Victim> reported;
            auto onEvict = [&reported](const std::uint64_t &key,
                                       std::size_t bytes) {
                reported.push_back({key, bytes});
            };

            for (std::uint64_t op = 0; op < 4000; ++op) {
                const std::uint64_t key = rng.nextBelow(24);
                const std::uint64_t pick = rng.nextBelow(100);
                reported.clear();
                std::vector<Victim> expected;
                if (pick < 45) {
                    EXPECT_EQ(cache.find(key), model.find(key))
                        << "op " << op;
                } else if (pick < 93) {
                    const std::size_t bytes = rng.nextRange(1, 120);
                    cache.insert(key, op, bytes, onEvict);
                    expected = model.insert(key, op, bytes);
                } else if (pick < 98) {
                    const std::size_t next = drawBudget();
                    cache.setBudget(next, onEvict);
                    expected = model.setBudget(next);
                } else {
                    cache.clear();
                    model.clear();
                }
                ASSERT_EQ(reported, expected) << "op " << op;
                expectSameStats(cache.stats(), model.stats());
            }
        }
    }
}

TEST(LruCache, EntryLargerThanItsSliceEvictsItself)
{
    Cache cache(100);
    std::vector<Victim> reported;
    auto onEvict = [&reported](const std::uint64_t &key,
                               std::size_t bytes) {
        reported.push_back({key, bytes});
    };
    cache.insert(1, 10, 60, onEvict);
    cache.insert(2, 20, 150, onEvict);
    EXPECT_EQ(reported, (std::vector<Victim>{{1, 60}, {2, 150}}));
    EXPECT_EQ(cache.find(2), std::nullopt);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(LruCache, ConcurrentHammerKeepsCountsAndBudget)
{
    // Threads insert and look up overlapping keys against a tight
    // budget; every eviction is reported exactly once.
    Cache cache(4 * 1024, 4);
    std::atomic<std::uint64_t> reported{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&cache, &reported, t]() {
            for (std::uint64_t n = 0; n < 500; ++n) {
                std::uint64_t key = (t * 37 + n) % 200;
                if (std::optional<std::uint64_t> hit = cache.find(key))
                    EXPECT_EQ(*hit, key * 3);
                else
                    cache.insert(key, key * 3, 64,
                                 [&reported](const std::uint64_t &,
                                             std::size_t bytes) {
                                     EXPECT_EQ(bytes, 64u);
                                     reported.fetch_add(1);
                                 });
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    LruCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 4u * 500u);
    EXPECT_EQ(stats.evictions, reported.load());
    EXPECT_EQ(stats.inserts - stats.evictions, stats.entries);
    EXPECT_LE(stats.bytes, stats.budgetBytes);
}

} // namespace
} // namespace wbsim
