/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/random.hh"

namespace wbsim
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NearbySeedsIndependent)
{
    // splitmix64 seed expansion should decorrelate adjacent seeds.
    Rng a(100), b(101);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000000007ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t v = rng.nextRange(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u); // all values reachable
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextBoolExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, NextBoolRoughlyFair)
{
    Rng rng(15);
    int trues = 0;
    for (int i = 0; i < 10000; ++i)
        trues += rng.nextBool(0.5);
    EXPECT_NEAR(trues, 5000, 300);
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(17);
    std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(rng.nextWeighted(weights), 1u);
}

TEST(Rng, WeightedProportions)
{
    Rng rng(19);
    std::vector<double> weights = {1.0, 3.0};
    int counts[2] = {0, 0};
    for (int i = 0; i < 10000; ++i)
        ++counts[rng.nextWeighted(weights)];
    EXPECT_NEAR(counts[1], 7500, 400);
}

TEST(Rng, WeightedAllZeroReturnsFirst)
{
    Rng rng(21);
    std::vector<double> weights = {0.0, 0.0};
    EXPECT_EQ(rng.nextWeighted(weights), 0u);
}

TEST(Rng, BernoulliDrawsAsNextBool)
{
    // The integer test must give nextBool's answers and take its
    // draws, including the edges where nextBool draws nothing.
    Rng pick(27);
    std::vector<double> ps = {0.0,  -0.5, 1.0, 1.5, 1e-300, 0.5,
                              0.06, 0.12, 1.0 - 0x1.0p-53};
    for (int i = 0; i < 200; ++i)
        ps.push_back(pick.nextDouble());
    for (double p : ps) {
        Rng a(29), b(29);
        Bernoulli chance(p);
        for (int i = 0; i < 500; ++i)
            ASSERT_EQ(chance(a), b.nextBool(p)) << "p " << p;
        ASSERT_EQ(chance.burst(a, 6), b.nextBurst(p, 6)) << "p " << p;
        ASSERT_EQ(a.next(), b.next()) << "p " << p;
    }
}

TEST(Rng, DoubleCutIsTheExactBoundary)
{
    constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
    Rng pick(31);
    for (int i = 0; i < 2000; ++i) {
        double p = i % 2 ? pick.nextDouble()
                         : static_cast<double>(pick.next() >> 11)
                               * 0x1.0p-53;
        std::uint64_t cut = Rng::doubleCut(p);
        ASSERT_LE(cut, kOne);
        if (cut > 0) {
            EXPECT_LT(static_cast<double>(cut - 1) * 0x1.0p-53, p);
        }
        if (cut < kOne) {
            EXPECT_GE(static_cast<double>(cut) * 0x1.0p-53, p);
        }
    }
}

/** nextWeighted's index for the draw @p draw (= next() >> 11). */
std::size_t
weightedIndex(const std::vector<double> &weights, std::uint64_t draw)
{
    double left = static_cast<double>(draw) * 0x1.0p-53
        * Rng::weightTotal(weights);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        left -= weights[i];
        if (left < 0.0)
            return i;
    }
    return weights.size() - 1;
}

TEST(Rng, WeightedCutsMatchWeightedDraws)
{
    constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
    Rng pick(33);
    std::vector<std::vector<double>> cases = {
        {1.0}, {0.1, 0.2, 0.7}, {0.0, 1.0, 0.0}, {3.0, 0.0},
        {0.45, 0.35, 0.1, 0.1}, {1e-9, 1.0, 1e9}};
    for (int i = 0; i < 40; ++i) {
        std::vector<double> weights(1 + pick.nextBelow(6));
        for (double &w : weights)
            w = pick.nextBelow(4) == 0 ? 0.0 : pick.nextDouble();
        cases.push_back(weights);
    }
    for (const std::vector<double> &weights : cases) {
        std::vector<std::uint64_t> cuts = Rng::weightedCuts(weights);
        if (Rng::weightTotal(weights) <= 0.0) {
            EXPECT_TRUE(cuts.empty());
            continue;
        }
        ASSERT_EQ(cuts.size(), weights.size());
        Rng a(35), b(35);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.nextWeighted(cuts), b.nextWeighted(weights));
        // Each cut is exactly where the double walk moves past i.
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            if (cuts[i] > 0) {
                EXPECT_LE(weightedIndex(weights, cuts[i] - 1), i);
            }
            if (cuts[i] < kOne) {
                EXPECT_GT(weightedIndex(weights, cuts[i]), i);
            }
        }
    }
    // No cuts: index 0 and no draw, as with all-zero weights.
    Rng a(37), b(37);
    EXPECT_EQ(a.nextWeighted(std::vector<std::uint64_t>{}), 0u);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BurstBounds)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        unsigned len = rng.nextBurst(0.7, 8);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, 8u);
    }
}

TEST(Rng, BurstZeroProbAlwaysOne)
{
    Rng rng(25);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBurst(0.0, 8), 1u);
}

TEST(Rng, BurstMeanMatchesGeometric)
{
    Rng rng(27);
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        total += rng.nextBurst(0.5, 64);
    // E[1 + Geom(0.5)] ~= 2 with a generous cap.
    EXPECT_NEAR(total / n, 2.0, 0.1);
}

TEST(SplitMix, HashCombineSpreads)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t a = 0; a < 50; ++a)
        for (std::uint64_t b = 0; b < 50; ++b)
            seen.insert(hashCombine(a, b));
    EXPECT_EQ(seen.size(), 2500u);
}

} // namespace
} // namespace wbsim
