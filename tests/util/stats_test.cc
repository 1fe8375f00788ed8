/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/stats.hh"

namespace wbsim::stats
{
namespace
{

TEST(Counter, StartsAtZero)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Ratio, HandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(percent(5, 0), 0.0);
}

TEST(Ratio, ComputesFractions)
{
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
}

TEST(Histogram, EmptyState)
{
    Histogram h(8);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4); // buckets 0..3 plus overflow
    h.sample(0);
    h.sample(3);
    h.sample(4);   // overflow
    h.sample(100); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 2u); // overflow slot
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 100u);
}

TEST(Histogram, BucketOfEveryWidthIsValueOverWidth)
{
    // Power-of-two widths shift, others divide: every width must put
    // each value in bucket value / width, or in the overflow bucket.
    const std::uint64_t values[] = {0,    1,    2,     3,    4,
                                    5,    7,    99,    100,  1023,
                                    1024, 1025, 40959, 40960, 1u << 20,
                                    ~std::uint64_t{0}};
    for (std::uint64_t width : {1u, 4u, 1024u, 100u}) {
        constexpr std::size_t kBuckets = 40;
        Histogram one(kBuckets, width);
        Histogram weighted(kBuckets, width);
        std::vector<Count> expected(kBuckets + 1, 0);
        for (std::uint64_t value : values) {
            one.sample(value);
            weighted.sample(value, 3);
            ++expected[std::min<std::uint64_t>(value / width, kBuckets)];
        }
        for (std::size_t i = 0; i <= kBuckets; ++i) {
            EXPECT_EQ(expected[i], one.bucket(i))
                << "width " << width << " bucket " << i;
            EXPECT_EQ(3 * expected[i], weighted.bucket(i))
                << "width " << width << " bucket " << i;
        }
        EXPECT_GT(expected[kBuckets], 0u) << "width " << width;
    }
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(8);
    h.sample(2, 5);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    h.sample(4, 5);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, ZeroCountSampleIgnored)
{
    Histogram h(8);
    h.sample(3, 0);
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Histogram, Reset)
{
    Histogram h(8);
    h.sample(7);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucket(7), 0u);
}

TEST(Histogram, SummaryMentionsStats)
{
    Histogram h(8);
    h.sample(1);
    h.sample(3);
    std::string s = h.summary();
    EXPECT_NE(s.find("n=2"), std::string::npos);
    EXPECT_NE(s.find("min=1"), std::string::npos);
    EXPECT_NE(s.find("max=3"), std::string::npos);
}

TEST(Histogram, QuantileOfEmptyIsZero)
{
    Histogram h(8);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileInterpolatesInsideBuckets)
{
    // One sample per value 0..99: the median interpolates to the
    // middle of bucket 49, not a bucket edge.
    Histogram h(100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 49.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 98.5);
}

TEST(Histogram, QuantileRespectsBucketWidth)
{
    Histogram h(8, 10);
    h.sample(5);
    h.sample(15, 3);
    // rank floor(0.95 * 3) = 2 falls mid-bucket-1: (1 + 0.5) * 10,
    // clamped to the observed maximum.
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 15.0);
}

TEST(Histogram, QuantileClampsToObservedRange)
{
    Histogram h(16);
    h.sample(7, 5); // all samples identical
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);
}

TEST(Histogram, QuantileOfOverflowSitsAtMaximum)
{
    Histogram h(4);
    h.sample(1);
    h.sample(100); // overflow bucket
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileWithOverflowFlagsSaturatedTail)
{
    Histogram h(4);
    h.sample(1);
    h.sample(2);
    h.sample(100); // overflow bucket
    // The median is measured; the p99/p100 rank lands in overflow and
    // must come back clamped to the observed maximum *and* flagged.
    Quantile mid = h.quantileWithOverflow(0.5);
    EXPECT_FALSE(mid.overflowed);
    Quantile tail = h.quantileWithOverflow(1.0);
    EXPECT_TRUE(tail.overflowed);
    EXPECT_DOUBLE_EQ(tail.value, 100.0);
    EXPECT_EQ(h.overflowCount(), 1u);
}

TEST(Histogram, QuantileWithOverflowMatchesQuantileValue)
{
    // The flagged API must not change the numbers the unflagged one
    // reports — exporters switch between them freely.
    Histogram h(8, 4);
    for (std::uint64_t v = 0; v < 64; ++v)
        h.sample(v);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(h.quantileWithOverflow(q).value, h.quantile(q));
}

TEST(Histogram, QuantileWithOverflowOnEmptyAndInRange)
{
    Histogram h(8);
    EXPECT_FALSE(h.quantileWithOverflow(0.999).overflowed);
    EXPECT_DOUBLE_EQ(h.quantileWithOverflow(0.999).value, 0.0);
    h.sample(3, 10); // all samples measured, none in overflow
    Quantile q = h.quantileWithOverflow(0.999);
    EXPECT_FALSE(q.overflowed);
    EXPECT_DOUBLE_EQ(q.value, 3.0);
    EXPECT_EQ(h.overflowCount(), 0u);
}

TEST(Histogram, MergeCombinesEverything)
{
    Histogram a(8);
    Histogram b(8);
    a.sample(1);
    a.sample(2);
    b.sample(6, 2);
    a.merge(b);
    EXPECT_EQ(a.samples(), 4u);
    EXPECT_EQ(a.minValue(), 1u);
    EXPECT_EQ(a.maxValue(), 6u);
    EXPECT_DOUBLE_EQ(a.mean(), (1.0 + 2.0 + 6.0 + 6.0) / 4.0);
    EXPECT_EQ(a.bucket(6), 2u);
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    // Per-thread shards from a sharded grid may combine in any
    // order; the result must be deterministic.
    auto shard = [](std::uint64_t phase) {
        Histogram h(16, 2);
        for (std::uint64_t i = 0; i < 40; ++i)
            h.sample((i * 7 + phase * 13) % 37);
        return h;
    };
    Histogram a = shard(0);
    Histogram b = shard(1);
    Histogram c = shard(2);

    Histogram left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    Histogram bc = b; // a + (b + c)
    bc.merge(c);
    Histogram right = a;
    right.merge(bc);
    Histogram swapped = c; // c + b + a
    swapped.merge(b);
    swapped.merge(a);

    for (const Histogram *h : {&right, &swapped}) {
        EXPECT_EQ(left.samples(), h->samples());
        EXPECT_EQ(left.minValue(), h->minValue());
        EXPECT_EQ(left.maxValue(), h->maxValue());
        EXPECT_DOUBLE_EQ(left.mean(), h->mean());
        for (std::size_t i = 0; i <= left.buckets(); ++i)
            EXPECT_EQ(left.bucket(i), h->bucket(i));
        for (double q : {0.5, 0.95, 0.99})
            EXPECT_DOUBLE_EQ(left.quantile(q), h->quantile(q));
    }
}

TEST(Histogram, MergeOfEmptyIsIdentity)
{
    Histogram a(8);
    a.sample(3);
    Histogram empty(8);
    a.merge(empty);
    EXPECT_EQ(a.samples(), 1u);
    EXPECT_EQ(a.minValue(), 3u);
    EXPECT_EQ(a.maxValue(), 3u);
    empty.merge(a);
    EXPECT_EQ(empty.samples(), 1u);
    EXPECT_EQ(empty.minValue(), 3u);
}

TEST(StatSet, DumpsSortedNamedValues)
{
    Count raw = 42;
    Counter counter;
    ++counter;
    double d = 2.5;
    StatSet set;
    set.addScalar("zulu", &raw);
    set.addScalar("alpha", &counter);
    set.addDouble("mid", &d);
    std::ostringstream os;
    set.dump(os, "pfx.");
    EXPECT_EQ(os.str(), "pfx.zulu 42\npfx.alpha 1\npfx.mid 2.5\n");
}

} // namespace
} // namespace wbsim::stats
