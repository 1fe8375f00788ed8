/**
 * @file
 * ResultStore tests: hit/miss accounting, byte-budgeted LRU
 * eviction, key identity, and a concurrent hammer (which CI also
 * runs under ThreadSanitizer).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/result_store.hh"

namespace wbsim::serve
{
namespace
{

CellKey
keyFor(std::uint64_t n)
{
    CellKey key;
    key.benchmark = "espresso";
    key.machineFingerprint = 0x1000 + n;
    key.seed = 1;
    key.instructions = 10000;
    key.warmup = 1000;
    return key;
}

/** A token naming @p cycles, fixed-width so every entry is charged
 *  the same bytes. */
ResultStore::TokenPtr
tokenFor(std::uint64_t cycles)
{
    char text[32];
    std::snprintf(text, sizeof text, "\"cycles %012llu\"",
                  static_cast<unsigned long long>(cycles));
    return std::make_shared<const std::string>(text);
}

/** The cycles tokenFor() wrote into @p token. */
std::uint64_t
cyclesOf(const ResultStore::TokenPtr &token)
{
    return std::stoull(token->substr(8));
}

TEST(ResultStore, MissThenInsertThenHit)
{
    ResultStore store(/*budgetBytes=*/0, /*shards=*/4);
    EXPECT_EQ(nullptr, store.find(keyFor(1)));
    store.insert(keyFor(1), tokenFor(123));
    ResultStore::TokenPtr hit = store.find(keyFor(1));
    ASSERT_NE(nullptr, hit);
    EXPECT_EQ(123u, cyclesOf(hit));

    ResultStoreStats stats = store.stats();
    EXPECT_EQ(1u, stats.hits);
    EXPECT_EQ(1u, stats.misses);
    EXPECT_EQ(1u, stats.inserts);
    EXPECT_EQ(1u, stats.entries);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultStore, EveryKeyFieldMatters)
{
    ResultStore store(0, 1);
    store.insert(keyFor(1), tokenFor(1));

    CellKey other = keyFor(1);
    other.benchmark = "li";
    EXPECT_EQ(nullptr, store.find(other));
    other = keyFor(1);
    other.seed = 2;
    EXPECT_EQ(nullptr, store.find(other));
    other = keyFor(1);
    other.instructions = 9999;
    EXPECT_EQ(nullptr, store.find(other));
    other = keyFor(1);
    other.warmup = 0;
    EXPECT_EQ(nullptr, store.find(other));
    other = keyFor(1);
    other.machineFingerprint ^= 1;
    EXPECT_EQ(nullptr, store.find(other));
    EXPECT_NE(nullptr, store.find(keyFor(1)));
}

TEST(ResultStore, ReinsertRefreshesInsteadOfDuplicating)
{
    ResultStore store(0, 1);
    store.insert(keyFor(1), tokenFor(1));
    store.insert(keyFor(1), tokenFor(2));
    EXPECT_EQ(1u, store.stats().entries);
    EXPECT_EQ(2u, cyclesOf(store.find(keyFor(1))));
}

TEST(ResultStore, EvictsLruUnderByteBudget)
{
    // One shard so the LRU order is global; a budget of ~8 entries.
    ResultStore probe(0, 1);
    probe.insert(keyFor(0), tokenFor(0));
    const std::uint64_t perEntry = probe.stats().bytes;
    ASSERT_GT(perEntry, 0u);

    ResultStore store(std::size_t(perEntry * 8), 1);
    for (std::uint64_t n = 0; n < 32; ++n)
        store.insert(keyFor(n), tokenFor(n));

    ResultStoreStats stats = store.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, stats.budgetBytes);
    EXPECT_LE(stats.entries, 8u);
    // Oldest gone, newest resident.
    EXPECT_EQ(nullptr, store.find(keyFor(0)));
    EXPECT_NE(nullptr, store.find(keyFor(31)));
}

TEST(ResultStore, FindRefreshesLruOrder)
{
    ResultStore probe(0, 1);
    probe.insert(keyFor(0), tokenFor(0));
    const std::uint64_t perEntry = probe.stats().bytes;

    ResultStore store(std::size_t(perEntry * 4), 1);
    for (std::uint64_t n = 0; n < 4; ++n)
        store.insert(keyFor(n), tokenFor(n));
    // Touch the oldest; the next insert must evict key 1, not key 0.
    ASSERT_NE(nullptr, store.find(keyFor(0)));
    store.insert(keyFor(100), tokenFor(100));
    EXPECT_NE(nullptr, store.find(keyFor(0)));
    EXPECT_EQ(nullptr, store.find(keyFor(1)));
}

TEST(ResultStore, UnboundedStoreNeverEvicts)
{
    ResultStore store(0, 4);
    for (std::uint64_t n = 0; n < 512; ++n)
        store.insert(keyFor(n), tokenFor(n));
    ResultStoreStats stats = store.stats();
    EXPECT_EQ(0u, stats.evictions);
    EXPECT_EQ(512u, stats.entries);
    EXPECT_EQ(0u, stats.budgetBytes);
}

TEST(ResultStore, EvictionNeverInvalidatesHandedOutResults)
{
    ResultStore probe(0, 1);
    probe.insert(keyFor(0), tokenFor(0));
    const std::uint64_t perEntry = probe.stats().bytes;

    ResultStore store(std::size_t(perEntry * 2), 1);
    store.insert(keyFor(1), tokenFor(11));
    ResultStore::TokenPtr held = store.find(keyFor(1));
    for (std::uint64_t n = 2; n < 10; ++n)
        store.insert(keyFor(n), tokenFor(n));
    EXPECT_EQ(nullptr, store.find(keyFor(1))) << "should be evicted";
    EXPECT_EQ(11u, cyclesOf(held)) << "held pointer must stay valid";
}

TEST(ResultStore, LargerTokensEvictSooner)
{
    // An entry is charged its token's bytes, so under one budget a
    // larger token leaves room for fewer entries.
    ResultStore probe(0, 1);
    probe.insert(keyFor(0), tokenFor(0));
    const std::uint64_t perEntry = probe.stats().bytes;
    const std::size_t smallToken = tokenFor(0)->size();

    auto fill = [&](std::size_t tokenBytes) {
        ResultStore store(std::size_t(perEntry * 8), 1);
        for (std::uint64_t n = 0; n < 32; ++n)
            store.insert(keyFor(n), std::make_shared<const std::string>(
                                        tokenBytes, 'x'));
        return store.stats();
    };
    ResultStoreStats small = fill(smallToken);
    // One entry's worth more token: each entry now costs two.
    ResultStoreStats large = fill(smallToken + std::size_t(perEntry));

    EXPECT_EQ(8u, small.entries);
    EXPECT_EQ(24u, small.evictions);
    EXPECT_EQ(4u, large.entries);
    EXPECT_EQ(28u, large.evictions);
    EXPECT_EQ(small.bytes, large.bytes);
    EXPECT_LE(large.bytes, large.budgetBytes);
}

TEST(ResultStore, ClearDropsEntriesKeepsCounters)
{
    ResultStore store(0, 4);
    store.insert(keyFor(1), tokenFor(1));
    ASSERT_NE(nullptr, store.find(keyFor(1)));
    store.clear();
    EXPECT_EQ(nullptr, store.find(keyFor(1)));
    ResultStoreStats stats = store.stats();
    EXPECT_EQ(0u, stats.entries);
    EXPECT_EQ(0u, stats.bytes);
    EXPECT_EQ(1u, stats.inserts);
}

TEST(ResultStore, ConcurrentHammerStaysConsistent)
{
    // 8 threads insert and look up overlapping keys against a tight
    // budget; the invariants afterwards are what matter (TSan runs
    // this in CI for the ordering half).
    ResultStore store(64 * 1024, 8);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&store, t]() {
            for (std::uint64_t n = 0; n < 200; ++n) {
                std::uint64_t key = (t * 50 + n) % 300;
                if (ResultStore::TokenPtr hit =
                        store.find(keyFor(key))) {
                    EXPECT_EQ(key, cyclesOf(hit));
                } else {
                    store.insert(keyFor(key), tokenFor(key));
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    ResultStoreStats stats = store.stats();
    EXPECT_LE(stats.bytes, stats.budgetBytes);
    EXPECT_EQ(stats.hits + stats.misses, 8u * 200u);
}

} // namespace
} // namespace wbsim::serve
