/**
 * @file
 * Unit and property tests for the generic cache tag store.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace wbsim
{
namespace
{

CacheGeometry
geom(std::uint64_t size, std::uint64_t line, std::uint64_t assoc)
{
    return CacheGeometry{size, line, assoc};
}

TEST(CacheGeometry, SetsComputed)
{
    EXPECT_EQ(geom(8192, 32, 1).sets(), 256u);
    EXPECT_EQ(geom(8192, 32, 2).sets(), 128u);
    EXPECT_EQ(geom(1024 * 1024, 32, 4).sets(), 8192u);
}

TEST(CacheGeometryDeath, NonPowerOfTwoIsFatal)
{
    EXPECT_EXIT(geom(3000, 32, 1).validate("t"),
                ::testing::ExitedWithCode(1), "powers of two");
    EXPECT_EXIT(geom(8192, 48, 1).validate("t"),
                ::testing::ExitedWithCode(1), "powers of two");
    EXPECT_EXIT(geom(8192, 32, 3).validate("t"),
                ::testing::ExitedWithCode(1), "powers of two");
}

TEST(CacheGeometryDeath, SmallerThanOneSetIsFatal)
{
    EXPECT_EXIT(geom(64, 32, 4).validate("t"),
                ::testing::ExitedWithCode(1), "smaller than one set");
}

TEST(Cache, MissThenHit)
{
    Cache cache(geom(1024, 32, 1), "t");
    EXPECT_FALSE(cache.access(0x100));
    cache.allocate(0x100);
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x11f)); // same line
    EXPECT_FALSE(cache.access(0x120)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, DirectMappedConflict)
{
    Cache cache(geom(1024, 32, 1), "t"); // 32 sets
    cache.allocate(0x0);
    auto eviction = cache.allocate(0x400); // aliases set 0
    ASSERT_TRUE(eviction.has_value());
    EXPECT_EQ(eviction->blockAddr, 0x0u);
    EXPECT_FALSE(cache.probe(0x0));
    EXPECT_TRUE(cache.probe(0x400));
}

TEST(Cache, AllocateUsesFreeWayBeforeEvicting)
{
    Cache cache(geom(1024, 32, 2), "t"); // 16 sets, 2-way
    cache.allocate(0x0);
    auto second = cache.allocate(0x200); // same set, free way
    EXPECT_FALSE(second.has_value());
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_TRUE(cache.probe(0x200));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache cache(geom(1024, 32, 2), "t"); // 16 sets
    cache.allocate(0x0);
    cache.allocate(0x200);
    cache.access(0x0); // 0x0 is now MRU
    auto eviction = cache.allocate(0x400);
    ASSERT_TRUE(eviction.has_value());
    EXPECT_EQ(eviction->blockAddr, 0x200u);
    EXPECT_TRUE(cache.probe(0x0));
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    Cache cache(geom(1024, 32, 2), "t");
    cache.allocate(0x0);
    cache.allocate(0x200);
    cache.probe(0x0); // must NOT promote
    auto eviction = cache.allocate(0x400);
    ASSERT_TRUE(eviction.has_value());
    EXPECT_EQ(eviction->blockAddr, 0x0u);
}

TEST(Cache, DirtyBitTracksEvictions)
{
    Cache cache(geom(1024, 32, 1), "t");
    cache.allocate(0x0, /*dirty=*/true);
    auto eviction = cache.allocate(0x400);
    ASSERT_TRUE(eviction.has_value());
    EXPECT_TRUE(eviction->dirty);

    cache.allocate(0x800); // evicts clean 0x400
    EXPECT_FALSE(cache.probe(0x400));
}

TEST(Cache, SetDirtyOnPresentLine)
{
    Cache cache(geom(1024, 32, 1), "t");
    cache.allocate(0x40);
    EXPECT_TRUE(cache.setDirty(0x40));
    EXPECT_FALSE(cache.setDirty(0x80)); // absent
    auto eviction = cache.allocate(0x440);
    ASSERT_TRUE(eviction.has_value());
    EXPECT_TRUE(eviction->dirty);
}

TEST(Cache, Invalidate)
{
    Cache cache(geom(1024, 32, 1), "t");
    cache.allocate(0x40);
    EXPECT_TRUE(cache.invalidate(0x40));
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_FALSE(cache.invalidate(0x40)); // already gone
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(Cache, InvalidateAll)
{
    Cache cache(geom(1024, 32, 1), "t");
    for (Addr a = 0; a < 1024; a += 32)
        cache.allocate(a);
    EXPECT_EQ(cache.validLines(), 32u);
    cache.invalidateAll();
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(Cache, ReallocAfterInvalidateUsesFreedWay)
{
    Cache cache(geom(1024, 32, 2), "t");
    cache.allocate(0x0);
    cache.allocate(0x200);
    cache.invalidate(0x0);
    auto eviction = cache.allocate(0x400);
    EXPECT_FALSE(eviction.has_value()) << "freed way must be reused";
    EXPECT_TRUE(cache.probe(0x200));
}

TEST(Cache, HitRateAndReset)
{
    Cache cache(geom(1024, 32, 1), "t");
    cache.allocate(0x0);
    cache.access(0x0);
    cache.access(0x20);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
    cache.resetStats();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(CacheDeath, DoubleAllocatePanics)
{
    Cache cache(geom(1024, 32, 1), "t");
    cache.allocate(0x40);
    EXPECT_DEATH(cache.allocate(0x40), "present");
}

TEST(Cache, BlockAlign)
{
    Cache cache(geom(1024, 32, 1), "t");
    EXPECT_EQ(cache.blockAlign(0x47), 0x40u);
    EXPECT_EQ(cache.blockAlign(0x40), 0x40u);
}

/**
 * Property: a cyclic walk over a region that fits always hits after
 * the first pass; one that exceeds the capacity of a direct-mapped
 * cache never hits.
 */
class CacheCyclic
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(CacheCyclic, FitVsThrash)
{
    auto [size, assoc] = GetParam();
    Cache cache(geom(size, 32, assoc), "t");

    auto walk = [&](std::uint64_t region) {
        Count hits = 0, total = 0;
        for (int pass = 0; pass < 4; ++pass) {
            for (Addr a = 0; a < region; a += 32) {
                ++total;
                if (cache.access(a))
                    ++hits;
                else
                    cache.allocate(a);
            }
        }
        return std::pair<Count, Count>(hits, total);
    };

    // Fits: all passes after the first hit.
    auto [hits, total] = walk(size / 2);
    EXPECT_EQ(hits, total - size / 2 / 32);

    cache.invalidateAll();
    cache.resetStats();
    // Twice the capacity: a cyclic walk under LRU never re-hits.
    auto [hits2, total2] = walk(size * 2);
    (void)total2;
    EXPECT_EQ(hits2, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheCyclic,
    ::testing::Values(std::make_tuple(1024, 1),
                      std::make_tuple(1024, 2),
                      std::make_tuple(8192, 1),
                      std::make_tuple(8192, 4),
                      std::make_tuple(65536, 2)));

/** Property: validLines never exceeds capacity. */
TEST(Cache, ValidLinesBounded)
{
    Cache cache(geom(2048, 32, 2), "t");
    for (Addr a = 0; a < 1 << 16; a += 32) {
        if (!cache.access(a))
            cache.allocate(a);
        EXPECT_LE(cache.validLines(), 64u);
    }
    EXPECT_EQ(cache.validLines(), 64u);
}

} // namespace
} // namespace wbsim

namespace wbsim
{
namespace
{

TEST(Cache, ForEachValidLineSeesExactlyTheResidentSet)
{
    Cache cache(geom(1024, 32, 2), "t");
    cache.allocate(0x40, /*dirty=*/true);
    cache.allocate(0x80);
    std::vector<std::pair<Addr, bool>> seen;
    cache.forEachValidLine([&](Addr block, bool dirty) {
        seen.emplace_back(block, dirty);
    });
    ASSERT_EQ(seen.size(), 2u);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen[0], std::make_pair(Addr{0x40}, true));
    EXPECT_EQ(seen[1], std::make_pair(Addr{0x80}, false));
}

TEST(Cache, TouchRepeatEqualsRepeatedAccesses)
{
    // One 4-way set (stride 256 B = sets * line): fill it, then put
    // the lines through an interleaving of single accesses and
    // repeats on one cache and the equivalent access() calls on the
    // other. The LRU order must agree, which the next allocation's
    // victim exposes.
    const Addr stride = 256;
    for (Count n : {0u, 1u, 2u, 7u}) {
        Cache repeated(geom(1024, 32, 4), "r");
        Cache singles(geom(1024, 32, 4), "s");
        for (Addr way = 0; way < 4; ++way) {
            repeated.allocate(way * stride);
            singles.allocate(way * stride);
        }
        const Addr order[] = {2, 0, 3, 1, 0};
        for (Addr way : order) {
            Addr addr = way * stride + 4;
            EXPECT_TRUE(repeated.touchRepeat(addr, n));
            for (Count k = 0; k < n; ++k)
                EXPECT_TRUE(singles.access(addr));
            // A single access to another way between the repeats.
            Addr other = ((way + 1) % 4) * stride;
            EXPECT_TRUE(repeated.access(other));
            EXPECT_TRUE(singles.access(other));
        }
        EXPECT_EQ(repeated.hits(), singles.hits()) << n;
        EXPECT_EQ(repeated.misses(), singles.misses()) << n;
        // A miss repeated n times counts n misses, allocating nothing.
        EXPECT_FALSE(repeated.touchRepeat(9 * stride, n));
        for (Count k = 0; k < n; ++k)
            EXPECT_FALSE(singles.access(9 * stride));
        EXPECT_EQ(repeated.misses(), singles.misses()) << n;
        // Victims agree for the next four allocations.
        for (Addr fresh = 4; fresh < 8; ++fresh) {
            std::optional<Eviction> a = repeated.allocate(fresh * stride);
            std::optional<Eviction> b = singles.allocate(fresh * stride);
            ASSERT_TRUE(a.has_value() && b.has_value());
            EXPECT_EQ(a->blockAddr, b->blockAddr)
                << "n=" << n << " fresh=" << fresh;
        }
    }
}

TEST(Cache, ForEachValidLineEmptyCache)
{
    Cache cache(geom(1024, 32, 1), "t");
    int count = 0;
    cache.forEachValidLine([&](Addr, bool) { ++count; });
    EXPECT_EQ(count, 0);
}

} // namespace
} // namespace wbsim
