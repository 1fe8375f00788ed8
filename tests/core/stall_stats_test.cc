/**
 * @file
 * Unit tests for StallStats.
 */

#include <gtest/gtest.h>

#include "core/stall_stats.hh"

namespace wbsim
{
namespace
{

TEST(StallStats, StartsZeroed)
{
    StallStats s;
    EXPECT_EQ(s.totalCycles(), 0u);
}

TEST(StallStats, TotalSumsAllThreeCategories)
{
    StallStats s;
    s.bufferFullCycles = 3;
    s.l2ReadAccessCycles = 5;
    s.loadHazardCycles = 7;
    EXPECT_EQ(s.totalCycles(), 15u);
}

TEST(StallStats, MaxEpisodeIsTheLongestCategory)
{
    StallStats s;
    s.bufferFullMaxEpisode = 10;
    s.l2ReadAccessMaxEpisode = 20;
    s.loadHazardMaxEpisode = 5;
    s.bufferFullEvents = 1;
    s.l2ReadAccessEvents = 1;
    s.loadHazardEvents = 2;
    EXPECT_EQ(s.maxEpisode(), 20u);
    EXPECT_EQ(s.totalEvents(), 4u);
}

} // namespace
} // namespace wbsim
