/**
 * @file
 * Unit tests for the perfect/real L2 cache model, including the
 * strict-inclusion invalidation lists and fetch-on-write behaviour.
 */

#include <gtest/gtest.h>

#include "mem/l2_cache.hh"

namespace wbsim
{
namespace
{

TEST(L2Cache, PerfectAlwaysHits)
{
    L2Cache l2;
    EXPECT_TRUE(l2.isPerfect());
    EXPECT_EQ(l2.geometry(), nullptr);
    for (Addr a = 0; a < 1 << 22; a += 1 << 16) {
        L2Outcome read = l2.read(a);
        EXPECT_TRUE(read.hit);
        EXPECT_FALSE(read.memoryFetch);
        EXPECT_FALSE(read.invalidation.has_value());
        L2Outcome write = l2.write(a, false);
        EXPECT_TRUE(write.hit);
        EXPECT_FALSE(write.memoryFetch);
    }
    EXPECT_EQ(l2.readMisses(), 0u);
    EXPECT_EQ(l2.writeMisses(), 0u);
}

TEST(L2Cache, RealReadMissFetchesAndAllocates)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    L2Outcome first = l2.read(0x100);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.memoryFetch);
    L2Outcome second = l2.read(0x100);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.memoryFetch);
    EXPECT_DOUBLE_EQ(l2.readHitRate(), 0.5);
}

TEST(L2Cache, EvictionReportsInclusionInvalidation)
{
    L2Cache l2(CacheGeometry{2048, 32, 1}); // 64 sets
    l2.read(0x0);
    L2Outcome outcome = l2.read(0x800); // aliases set 0
    ASSERT_TRUE(outcome.invalidation.has_value());
    EXPECT_EQ(*outcome.invalidation, 0x0u);
    EXPECT_FALSE(outcome.dirtyWriteBack); // clean line
}

TEST(L2Cache, FullLineWriteMissAllocatesWithoutFetch)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    L2Outcome outcome = l2.write(0x100, /*full_line=*/true);
    EXPECT_FALSE(outcome.hit);
    EXPECT_FALSE(outcome.memoryFetch) << "full line needs no RMW fetch";
    EXPECT_TRUE(l2.probe(0x100));
}

TEST(L2Cache, PartialWriteMissFetchesOnWrite)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    L2Outcome outcome = l2.write(0x100, /*full_line=*/false);
    EXPECT_FALSE(outcome.hit);
    EXPECT_TRUE(outcome.memoryFetch) << "partial line merges from memory";
}

TEST(L2Cache, WriteHitMarksDirtyForLaterWriteBack)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    l2.read(0x0);            // clean
    l2.write(0x0, false);    // hit, now dirty
    L2Outcome outcome = l2.read(0x800); // evicts dirty 0x0
    EXPECT_TRUE(outcome.dirtyWriteBack);
}

TEST(L2Cache, WriteAllocatedLinesAreDirty)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    l2.write(0x0, true);
    L2Outcome outcome = l2.read(0x800);
    EXPECT_TRUE(outcome.dirtyWriteBack);
}

TEST(L2Cache, ReadAfterWriteHits)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    l2.write(0x40, true);
    EXPECT_TRUE(l2.read(0x40).hit);
}

TEST(L2Cache, StatsCountByAccessType)
{
    L2Cache l2(CacheGeometry{2048, 32, 1});
    l2.read(0x0);        // read miss
    l2.read(0x0);        // read hit
    l2.write(0x0, false); // write hit
    l2.write(0x40, false); // write miss
    EXPECT_EQ(l2.readHits(), 1u);
    EXPECT_EQ(l2.readMisses(), 1u);
    EXPECT_EQ(l2.writeHits(), 1u);
    EXPECT_EQ(l2.writeMisses(), 1u);
    l2.resetStats();
    EXPECT_EQ(l2.readHits() + l2.readMisses() + l2.writeHits()
                  + l2.writeMisses(),
              0u);
}

TEST(L2Cache, AssociativityAbsorbsAliases)
{
    L2Cache l2(CacheGeometry{2048, 32, 2}); // 32 sets, 2-way
    l2.read(0x0);
    L2Outcome outcome = l2.read(0x400); // same set, second way
    EXPECT_FALSE(outcome.invalidation.has_value());
    EXPECT_TRUE(l2.probe(0x0));
    EXPECT_TRUE(l2.probe(0x400));
}

} // namespace
} // namespace wbsim
