#include "serve/result_store.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/random.hh"

namespace wbsim::serve
{

namespace
{

/** Per-entry bookkeeping overhead (map node, LRU node, control
 *  block, token allocation) charged on top of the payload. */
constexpr std::size_t kEntryOverhead = 192;

} // namespace

std::uint64_t
CellKey::hash() const
{
    std::uint64_t h = 0x5e47e5707ull; // domain tag
    for (char c : benchmark)
        h = hashCombine(h, std::uint64_t(std::uint8_t(c)));
    h = hashCombine(h, machineFingerprint);
    h = hashCombine(h, seed);
    h = hashCombine(h, instructions);
    return hashCombine(h, warmup);
}

ResultStore::ResultStore(std::size_t budgetBytes, std::size_t shards)
{
    shards = std::clamp<std::size_t>(shards, 1, 256);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    budget_ = budgetBytes;
    shardBudget_ = budgetBytes == 0 ? 0
                                    : std::max<std::size_t>(
                                          budgetBytes / shards, 1);
}

ResultStore::Shard &
ResultStore::shardFor(const CellKey &key)
{
    // Re-mix so shard choice and bucket choice inside the shard use
    // decorrelated bits of the same hash.
    std::uint64_t h = hashCombine(key.hash(), 0x5a17ull);
    return *shards_[h % shards_.size()];
}

std::size_t
ResultStore::entryBytes(const CellKey &key, const std::string &token)
{
    return sizeof(std::string) + token.size() + sizeof(CellKey) * 2
           + key.benchmark.size() * 2 + kEntryOverhead;
}

ResultStore::TokenPtr
ResultStore::find(const CellKey &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.token;
}

void
ResultStore::insert(const CellKey &key, TokenPtr token)
{
    wbsim_assert(token != nullptr, "ResultStore::insert needs a token");
    const std::size_t bytes = entryBytes(key, *token);
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        // A concurrent worker simulated the same cell; its token is a
        // function of the key, so either copy is the truth. Keep ours
        // fresh in the LRU and swap the payload in.
        shard.bytes = shard.bytes - it->second.bytes + bytes;
        it->second.token = std::move(token);
        it->second.bytes = bytes;
        shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru);
        return;
    }
    Shard::Slot slot;
    slot.token = std::move(token);
    slot.bytes = bytes;
    slot.lru = shard.lru.insert(shard.lru.end(), key);
    shard.bytes += slot.bytes;
    shard.map.emplace(key, std::move(slot));
    inserts_.fetch_add(1, std::memory_order_relaxed);

    while (shardBudget_ != 0 && shard.bytes > shardBudget_
           && !shard.lru.empty()) {
        auto victim = shard.map.find(shard.lru.front());
        wbsim_assert(victim != shard.map.end(),
                     "result-store LRU out of sync with its map");
        shard.bytes -= victim->second.bytes;
        shard.map.erase(victim);
        shard.lru.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

ResultStoreStats
ResultStore::stats() const
{
    ResultStoreStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.inserts = inserts_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.budgetBytes = budget_;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.bytes += shard->bytes;
        out.entries += shard->map.size();
    }
    return out;
}

void
ResultStore::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->map.clear();
        shard->lru.clear();
        shard->bytes = 0;
    }
}

} // namespace wbsim::serve
