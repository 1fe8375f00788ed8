/**
 * @file
 * Unit tests for the SoA sweep kernels (util/simd.hh) against a
 * plain reference implementation, over the mask edge cases the store
 * relies on — empty store, full store, duplicate-base chains,
 * 0/partial/full validMask — plus a randomized sweep with the
 * occupancy bitmask crossing its 64-bit word boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/random.hh"
#include "util/simd.hh"

namespace wbsim::test
{
namespace
{

/** Lane arrays under test control (padded like the EntryStore's). */
struct LaneRig
{
    explicit LaneRig(std::size_t depth_in) : depth(depth_in)
    {
        std::size_t padded =
            (depth + simd::kLanePad - 1) / simd::kLanePad
            * simd::kLanePad;
        if (padded == 0)
            padded = simd::kLanePad;
        base.assign(padded, 0);
        mask.assign(padded, 0);
        seq.assign(padded, 0);
        occ.assign((padded + 63) / 64, 0);
    }

    void
    set(std::size_t i, Addr b, std::uint32_t m, std::uint64_t s)
    {
        base[i] = b;
        mask[i] = m;
        seq[i] = s;
        occ[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    bool
    valid(std::size_t i) const
    {
        return ((occ[i >> 6] >> (i & 63)) & 1u) != 0;
    }

    simd::Lanes
    lanes() const
    {
        return {base.data(), mask.data(), seq.data(), occ.data(),
                base.size()};
    }

    std::size_t depth;
    std::vector<Addr> base;
    std::vector<std::uint32_t> mask;
    std::vector<std::uint64_t> seq;
    std::vector<std::uint64_t> occ;
};

/** @name Plain reference implementations (mirror EntryStore's naive
 *  scans, the semantics the kernels must reproduce exactly). */
/// @{
simd::ProbeHit
refProbe(const LaneRig &rig, Addr line_base, Addr line_end,
         Addr entry_base, Addr entry_bytes)
{
    simd::ProbeHit hit;
    for (std::size_t i = 0; i < rig.depth; ++i) {
        if (!rig.valid(i))
            continue;
        if (rig.base[i] < line_end
            && rig.base[i] + entry_bytes > line_base) {
            hit.blockHit = true;
            if (rig.seq[i] > hit.hitSeq)
                hit.hitSeq = rig.seq[i];
        }
        if (rig.base[i] == entry_base)
            hit.foundMask |= rig.mask[i];
    }
    return hit;
}

int
refNewestMatch(const LaneRig &rig, Addr base, int exclude)
{
    int best = -1;
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < rig.depth; ++i) {
        if (!rig.valid(i) || rig.base[i] != base
            || static_cast<int>(i) == exclude)
            continue;
        if (rig.seq[i] > best_seq) {
            best_seq = rig.seq[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
refOldestValid(const LaneRig &rig)
{
    int best = -1;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (std::size_t i = 0; i < rig.depth; ++i) {
        if (rig.valid(i) && rig.seq[i] < best_seq) {
            best_seq = rig.seq[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
refOldestOverlapping(const LaneRig &rig, Addr line_base, Addr line_end,
                     Addr entry_bytes)
{
    int best = -1;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (std::size_t i = 0; i < rig.depth; ++i) {
        if (!rig.valid(i))
            continue;
        if (rig.base[i] < line_end
            && rig.base[i] + entry_bytes > line_base
            && rig.seq[i] < best_seq) {
            best_seq = rig.seq[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}
/// @}

/** Assert every kernel agrees with the reference on every query
 *  against @p rig for a set of probe/match addresses. */
void
checkAllQueries(const LaneRig &rig, const std::vector<Addr> &addrs,
                Addr entry_bytes, Addr line_bytes)
{
    unsigned valid = 0;
    for (std::size_t i = 0; i < rig.depth; ++i)
        valid += rig.valid(i) ? 1 : 0;
    EXPECT_EQ(simd::countValid(rig.lanes()), valid);
    EXPECT_EQ(simd::oldestValid(rig.lanes()), refOldestValid(rig));
    for (Addr addr : addrs) {
        Addr line_base = addr & ~(line_bytes - 1);
        Addr line_end = line_base + line_bytes;
        Addr entry_base = addr & ~(entry_bytes - 1);
        simd::ProbeHit expect = refProbe(rig, line_base, line_end,
                                         entry_base, entry_bytes);
        simd::ProbeHit got = simd::probeSweep(
            rig.lanes(), line_base, line_end, entry_base, entry_bytes);
        EXPECT_EQ(got.blockHit, expect.blockHit);
        EXPECT_EQ(got.hitSeq, expect.hitSeq);
        EXPECT_EQ(got.foundMask, expect.foundMask);
        for (int exclude = -1; exclude < static_cast<int>(rig.depth);
             ++exclude) {
            EXPECT_EQ(simd::newestMatch(rig.lanes(), entry_base, exclude),
                      refNewestMatch(rig, entry_base, exclude))
                << "exclude=" << exclude;
        }
        EXPECT_EQ(simd::oldestOverlapping(rig.lanes(), line_base,
                                          line_end, entry_bytes),
                  refOldestOverlapping(rig, line_base, line_end,
                                       entry_bytes));
    }
}

TEST(SimdKernels, EmptyStoreFindsNothing)
{
    for (std::size_t depth : {std::size_t{1}, std::size_t{5},
                              std::size_t{64}, std::size_t{65}}) {
        LaneRig rig(depth);
        EXPECT_EQ(simd::countValid(rig.lanes()), 0u);
        EXPECT_EQ(simd::oldestValid(rig.lanes()), -1);
        EXPECT_EQ(simd::newestMatch(rig.lanes(), 0x1000, -1), -1);
        simd::ProbeHit hit =
            simd::probeSweep(rig.lanes(), 0x1000, 0x1020, 0x1000, 32);
        EXPECT_FALSE(hit.blockHit);
        EXPECT_EQ(hit.hitSeq, 0u);
        EXPECT_EQ(hit.foundMask, 0u);
        EXPECT_EQ(
            simd::oldestOverlapping(rig.lanes(), 0x1000, 0x1020, 32),
            -1);
    }
}

TEST(SimdKernels, FullStoreEveryLaneParticipates)
{
    // 65 entries so the occupancy bitmask spans two words; every
    // lane valid with a full validMask.
    LaneRig rig(65);
    for (std::size_t i = 0; i < rig.depth; ++i)
        rig.set(i, 0x1000 + 32 * static_cast<Addr>(i), 0xFF, i + 1);
    checkAllQueries(rig,
                    {0x1000, 0x1004, 0x1000 + 32 * 64, 0x9000}, 32,
                    32);
}

TEST(SimdKernels, DuplicateBaseChainsResolveBySeq)
{
    // Five entries at the same base with interleaved seqs; newest
    // must win, and excluding the newest must yield the second.
    LaneRig rig(8);
    rig.set(0, 0x2000, 0x0F, 7);
    rig.set(2, 0x2000, 0xF0, 12);
    rig.set(3, 0x4000, 0xFF, 3);
    rig.set(4, 0x2000, 0x01, 9);
    rig.set(6, 0x2000, 0x80, 2);
    rig.set(7, 0x2000, 0x18, 11);
    EXPECT_EQ(simd::newestMatch(rig.lanes(), 0x2000, -1), 2);
    EXPECT_EQ(simd::newestMatch(rig.lanes(), 0x2000, 2), 7);
    EXPECT_EQ(simd::newestMatch(rig.lanes(), 0x4000, -1), 3);
    EXPECT_EQ(simd::newestMatch(rig.lanes(), 0x4000, 3), -1);
    // The probe ORs every duplicate's mask at the base.
    simd::ProbeHit hit =
        simd::probeSweep(rig.lanes(), 0x2000, 0x2020, 0x2000, 32);
    EXPECT_TRUE(hit.blockHit);
    EXPECT_EQ(hit.hitSeq, 12u);
    EXPECT_EQ(hit.foundMask, 0x0Fu | 0xF0u | 0x01u | 0x80u | 0x18u);
    checkAllQueries(rig, {0x2000, 0x4000, 0x6000}, 32, 32);
}

TEST(SimdKernels, ValidMaskZeroPartialFull)
{
    LaneRig rig(4);
    rig.set(0, 0x1000, 0x00, 1); // zero mask: block hit, no words
    rig.set(1, 0x1020, 0x3C, 2); // partial
    rig.set(2, 0x1040, 0xFF, 3); // full
    simd::ProbeHit zero =
        simd::probeSweep(rig.lanes(), 0x1000, 0x1020, 0x1000, 32);
    EXPECT_TRUE(zero.blockHit);
    EXPECT_EQ(zero.foundMask, 0x00u);
    simd::ProbeHit partial =
        simd::probeSweep(rig.lanes(), 0x1020, 0x1040, 0x1020, 32);
    EXPECT_EQ(partial.foundMask, 0x3Cu);
    simd::ProbeHit full =
        simd::probeSweep(rig.lanes(), 0x1040, 0x1060, 0x1040, 32);
    EXPECT_EQ(full.foundMask, 0xFFu);
    checkAllQueries(rig, {0x1000, 0x1020, 0x1040, 0x1060}, 32, 32);
}

TEST(SimdKernels, OverlapBoundariesAreHalfOpen)
{
    // Entries of 16 bytes probed against a 32-byte line at 0x1020:
    // one ends exactly at line_base (no overlap), one starts exactly
    // at line_end (no overlap), two inside.
    LaneRig rig(4);
    rig.set(0, 0x1010, 0xF, 1); // [0x1010,0x1020): misses the line
    rig.set(1, 0x1020, 0xF, 2); // first half
    rig.set(2, 0x1030, 0xF, 3); // second half
    rig.set(3, 0x1040, 0xF, 4); // [0x1040,...): misses the line
    simd::ProbeHit hit =
        simd::probeSweep(rig.lanes(), 0x1020, 0x1040, 0x1020, 16);
    EXPECT_TRUE(hit.blockHit);
    EXPECT_EQ(hit.hitSeq, 3u);
    EXPECT_EQ(simd::oldestOverlapping(rig.lanes(), 0x1020, 0x1040, 16),
              1);
    checkAllQueries(rig, {0x1010, 0x1020, 0x1030, 0x1040}, 16, 32);
}

TEST(SimdKernels, RandomizedLevelsAgreeWithReference)
{
    Rng rng(0x51D0);
    for (int round = 0; round < 200; ++round) {
        std::size_t depth = 1 + rng.nextBelow(66);
        LaneRig rig(depth);
        std::uint64_t next_seq = 1;
        for (std::size_t i = 0; i < depth; ++i) {
            if (rng.nextBool(0.35))
                continue; // leave a hole
            // A small address pool forces duplicate bases.
            Addr base = 0x8000 + 32 * rng.nextBelow(12);
            rig.set(i, base,
                    static_cast<std::uint32_t>(rng.nextBelow(256)),
                    next_seq++);
        }
        std::vector<Addr> addrs;
        for (int a = 0; a < 6; ++a)
            addrs.push_back(0x8000 + 8 * rng.nextBelow(52));
        checkAllQueries(rig, addrs, 32, 32);
    }
}

} // namespace
} // namespace wbsim::test
