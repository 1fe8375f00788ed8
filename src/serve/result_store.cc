#include "serve/result_store.hh"

#include <functional>
#include <string_view>

#include "util/logging.hh"
#include "util/random.hh"

namespace wbsim::serve
{

namespace
{

/** Per-entry bookkeeping overhead (map node, LRU node, control
 *  block, token allocation) charged on top of the payload. */
constexpr std::size_t kEntryOverhead = 192;

/** The bytes an entry is charged: its token, its key (held by the
 *  map and by the LRU node) and kEntryOverhead. */
std::size_t
entryBytes(const CellKey &key, const std::string &token)
{
    return sizeof(std::string) + token.size() + sizeof(CellKey) * 2
           + key.benchmark.size() * 2 + kEntryOverhead;
}

} // namespace

std::size_t
CellKeyHash::operator()(const CellKey &key) const
{
    std::uint64_t h =
        std::hash<std::string_view>{}(std::string_view(key.benchmark));
    h = hashCombine(h, key.machineFingerprint);
    h = hashCombine(h, key.seed);
    h = hashCombine(h, key.instructions);
    return std::size_t(hashCombine(h, key.warmup));
}

void
ResultStore::insert(const CellKey &key, TokenPtr token)
{
    wbsim_assert(token != nullptr, "ResultStore::insert needs a token");
    // A concurrent worker may have simulated the same cell; its token
    // is a function of the key, so either copy is the truth.
    const std::size_t bytes = entryBytes(key, *token);
    cache_.insert(key, std::move(token), bytes);
}

} // namespace wbsim::serve
