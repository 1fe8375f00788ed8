/**
 * @file
 * Unit tests for the perfect/real instruction cache.
 */

#include <gtest/gtest.h>

#include "mem/l1_icache.hh"

namespace wbsim
{
namespace
{

TEST(L1ICache, PerfectAlwaysHits)
{
    L1ICache icache;
    EXPECT_TRUE(icache.isPerfect());
    for (Addr pc = 0; pc < 1 << 20; pc += 4096)
        EXPECT_TRUE(icache.fetch(pc));
    EXPECT_EQ(icache.misses(), 0u);
    EXPECT_DOUBLE_EQ(icache.hitRate(), 1.0);
}

TEST(L1ICache, RealMissesThenHits)
{
    L1ICache icache(CacheGeometry{1024, 32, 1});
    EXPECT_FALSE(icache.isPerfect());
    EXPECT_FALSE(icache.fetch(0x100));
    icache.fill(0x100);
    EXPECT_TRUE(icache.fetch(0x100));
    EXPECT_TRUE(icache.fetch(0x104)); // same line
}

TEST(L1ICache, RealConflicts)
{
    L1ICache icache(CacheGeometry{1024, 32, 1});
    icache.fill(0x0);
    icache.fill(0x400); // aliases
    EXPECT_FALSE(icache.fetch(0x0));
}

TEST(L1ICache, ResetStatsKeepsContent)
{
    L1ICache icache(CacheGeometry{1024, 32, 1});
    icache.fetch(0x0);
    icache.fill(0x0);
    icache.resetStats();
    EXPECT_EQ(icache.misses(), 0u);
    EXPECT_TRUE(icache.fetch(0x0)); // still resident
}

TEST(L1ICache, FetchRepeatCountsHits)
{
    L1ICache perfect;
    perfect.fetchRepeat(0x100, 5);
    EXPECT_EQ(perfect.hits(), 5u);

    L1ICache real(CacheGeometry{1024, 32, 1});
    EXPECT_FALSE(real.fetch(0x100));
    real.fill(0x100);
    real.fetchRepeat(0x104, 7);
    EXPECT_EQ(real.hits(), 7u);
    EXPECT_EQ(real.misses(), 1u);
}

TEST(L1ICacheDeath, FillingPerfectCachePanics)
{
    L1ICache icache;
    EXPECT_DEATH(icache.fill(0x0), "perfect");
}

} // namespace
} // namespace wbsim
