/**
 * wbsim-lint fixture: a hot wrapper that dispatches between two
 * sweep kernels over SoA lanes (a synthetic shape; the kernels in
 * src/util/simd.hh have no dispatch). The WL-HOT-ALLOC traversal
 * must follow the call into every reachable kernel body (they are
 * plain inline functions, not annotated themselves), flag an
 * allocation hidden inside one, keep quiet about the branch-free
 * one, and stop at the cold naive-scan reference.
 *
 * Lines tagged `EXPECT: <RULE>` must produce exactly one diagnostic
 * of that rule at that line.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#define HOT [[clang::annotate("wbsim::hot")]]
#define COLD [[clang::annotate("wbsim::cold")]]

namespace fixture
{

enum class Level
{
    Scalar,
    Vector,
};

/** Read-only view of the parallel lane arrays. */
struct Lanes
{
    const std::uint64_t *base;
    const std::uint64_t *seq;
    const std::uint64_t *occ;
    std::size_t n;
};

/** Branch-free scalar sweep: pure arithmetic, no diagnostic. */
inline int
newestMatchScalar(const Lanes &l, std::uint64_t base)
{
    std::uint64_t best_key = 0;
    int best = -1;
    for (std::size_t i = 0; i < l.n; ++i) {
        const std::uint64_t lane = (l.occ[i >> 6] >> (i & 63)) & 1u;
        const std::uint64_t match =
            lane & static_cast<std::uint64_t>(l.base[i] == base);
        const std::uint64_t key = l.seq[i] & (0 - match);
        best = key > best_key ? static_cast<int>(i) : best;
        best_key = key > best_key ? key : best_key;
    }
    return best;
}

/** A "vector" kernel that gathers candidates into a scratch vector:
 *  the allocation the traversal must find through the dispatch. */
inline int
newestMatchVector(const Lanes &l, std::uint64_t base)
{
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < l.n; ++i) {
        if (((l.occ[i >> 6] >> (i & 63)) & 1u) != 0
            && l.base[i] == base)
            hits.push_back(i); // EXPECT: WL-HOT-ALLOC
    }
    int best = -1;
    std::uint64_t best_key = 0;
    for (std::size_t i : hits) {
        if (l.seq[i] > best_key) {
            best_key = l.seq[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

/** Naive reference scan: allocates freely, but the traversal stops
 *  at cold functions, so no diagnostic. */
COLD inline int
newestMatchNaive(const Lanes &l, std::uint64_t base)
{
    std::vector<int> order;
    for (std::size_t i = 0; i < l.n; ++i)
        order.push_back(static_cast<int>(i));
    int best = -1;
    for (int i : order) {
        const std::size_t j = static_cast<std::size_t>(i);
        if (((l.occ[j >> 6] >> (j & 63)) & 1u) != 0
            && l.base[j] == base
            && (best < 0
                || l.seq[j] > l.seq[static_cast<std::size_t>(best)]))
            best = i;
    }
    return best;
}

/** The hot dispatch wrapper: the traversal enters both level
 *  kernels from here. */
HOT inline int
newestMatch(const Lanes &l, std::uint64_t base, Level level)
{
    if (level == Level::Vector)
        return newestMatchVector(l, base);
    return newestMatchScalar(l, base);
}

/** Cross-check path: hot, but the naive twin it consults is cold. */
HOT inline bool
newestMatchChecked(const Lanes &l, std::uint64_t base, Level level)
{
    return newestMatch(l, base, level) == newestMatchNaive(l, base);
}

} // namespace fixture
