/**
 * @file
 * Branch-free sweep kernels over the EntryStore's structure-of-arrays
 * lanes (DESIGN.md §12). Every kernel reads parallel arrays — entry
 * base tags, word-valid masks, sequence stamps — plus a packed
 * occupancy bitmask, and answers one store-buffer query in a single
 * pass with no data-dependent branches in the lane loop:
 *
 *  - probeSweep        the load-hazard probe: block overlap, newest
 *                      overlapping seq, and the coalesced word mask
 *                      at the probe's entry base, all in one sweep
 *  - newestMatch       the coalescing merge-target lookup (newest
 *                      valid entry with a given base, one slot
 *                      excludable for an entry mid-retirement)
 *  - oldestValid       FIFO scan fallback (minimum seq)
 *  - oldestOverlapping flush-item-only's victim scan
 *  - countValid        occupancy popcount
 *
 * Each kernel is one portable loop that executes the same
 * instructions for every lane, so the compiler is free to
 * auto-vectorize it. The O(depth) naive scans in EntryStore are the
 * reference these kernels are cross-checked against (crossCheck).
 *
 * Lane arrays are padded to a multiple of kLanePad slots with their
 * occupancy bits clear, so the loops never need a tail pass; invalid
 * lanes are neutralized by mask selection, never skipped by a
 * branch. seq stamps are unique, so every min/max reduction has a
 * single well-defined winner.
 */

#ifndef WBSIM_UTIL_SIMD_HH
#define WBSIM_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace wbsim::simd
{

/** Lane arrays are sized to a multiple of this (one 4x64-bit
 *  vector step), so a vectorized sweep never needs a scalar tail. */
constexpr std::size_t kLanePad = 4;

/** A read-only view of the store's parallel lane arrays. */
struct Lanes
{
    const Addr *base;          //!< entry base tags
    const std::uint32_t *mask; //!< word-valid masks
    const std::uint64_t *seq;  //!< allocation stamps (unique, >= 1)
    const std::uint64_t *occ;  //!< packed occupancy bitmask
    std::size_t n;             //!< padded lane count (kLanePad multiple)
};

/** probeSweep's answer (the caller derives wordHit from foundMask). */
struct ProbeHit
{
    bool blockHit = false;
    std::uint64_t hitSeq = 0;       //!< newest overlapping seq (0 = none)
    std::uint32_t foundMask = 0;    //!< OR of masks at the probe base
};

namespace detail
{

/** Occupancy bit for lane @p i. */
inline std::uint64_t
laneBit(const std::uint64_t *occ, std::size_t i)
{
    return (occ[i >> 6] >> (i & 63)) & 1u;
}

} // namespace detail

// -------------------------------------------------------------------
// One pass, conditional-select per lane. The (0 - flag) idiom turns
// a 0/1 predicate into a 0/all-ones mask, so every lane executes the
// same instructions and the loops auto-vectorize.
// -------------------------------------------------------------------

inline ProbeHit
probeSweep(const Lanes &l, Addr line_base, Addr line_end,
           Addr entry_base, Addr entry_bytes)
{
    std::uint64_t block = 0;
    std::uint64_t hit_seq = 0;
    std::uint32_t found = 0;
    for (std::size_t i = 0; i < l.n; ++i) {
        const std::uint64_t lane = detail::laneBit(l.occ, i);
        const Addr b = l.base[i];
        const std::uint64_t overlap = lane
            & static_cast<std::uint64_t>(b < line_end)
            & static_cast<std::uint64_t>(b + entry_bytes > line_base);
        block |= overlap;
        const std::uint64_t s = l.seq[i] & (0 - overlap);
        hit_seq = s > hit_seq ? s : hit_seq;
        const std::uint64_t eq =
            lane & static_cast<std::uint64_t>(b == entry_base);
        found |= l.mask[i]
            & static_cast<std::uint32_t>(0 - static_cast<std::uint32_t>(eq));
    }
    return {block != 0, hit_seq, found};
}

inline int
newestMatch(const Lanes &l, Addr base, int exclude)
{
    std::uint64_t best_key = 0;
    int best = -1;
    for (std::size_t i = 0; i < l.n; ++i) {
        const std::uint64_t match = detail::laneBit(l.occ, i)
            & static_cast<std::uint64_t>(l.base[i] == base)
            & static_cast<std::uint64_t>(static_cast<int>(i) != exclude);
        const std::uint64_t key = l.seq[i] & (0 - match);
        best = key > best_key ? static_cast<int>(i) : best;
        best_key = key > best_key ? key : best_key;
    }
    return best;
}

inline int
oldestValid(const Lanes &l)
{
    std::uint64_t best_key = ~std::uint64_t{0};
    int best = -1;
    for (std::size_t i = 0; i < l.n; ++i) {
        const std::uint64_t lane = detail::laneBit(l.occ, i);
        // Invalid lanes present the maximum key, which never wins
        // against a real seq (seqs are small counters).
        const std::uint64_t key = l.seq[i] | (lane - 1);
        best = key < best_key ? static_cast<int>(i) : best;
        best_key = key < best_key ? key : best_key;
    }
    return best;
}

inline int
oldestOverlapping(const Lanes &l, Addr line_base, Addr line_end,
                  Addr entry_bytes)
{
    std::uint64_t best_key = ~std::uint64_t{0};
    int best = -1;
    for (std::size_t i = 0; i < l.n; ++i) {
        const Addr b = l.base[i];
        const std::uint64_t overlap = detail::laneBit(l.occ, i)
            & static_cast<std::uint64_t>(b < line_end)
            & static_cast<std::uint64_t>(b + entry_bytes > line_base);
        const std::uint64_t key = l.seq[i] | (overlap - 1);
        best = key < best_key ? static_cast<int>(i) : best;
        best_key = key < best_key ? key : best_key;
    }
    return best;
}

inline unsigned
countValid(const Lanes &l)
{
    unsigned count = 0;
    for (std::size_t w = 0; w < (l.n + 63) / 64; ++w)
        count += static_cast<unsigned>(__builtin_popcountll(l.occ[w]));
    return count;
}

} // namespace wbsim::simd

#endif // WBSIM_UTIL_SIMD_HH
