/**
 * @file
 * Unit tests for the workload address behaviours.
 */

#include <gtest/gtest.h>

#include <set>

#include "workloads/behavior.hh"

namespace wbsim
{
namespace
{

BehaviorSpec
spec(BehaviorKind kind, std::uint64_t region, unsigned access = 8,
     std::uint64_t stride = 0)
{
    BehaviorSpec s;
    s.kind = kind;
    s.region = region;
    s.accessBytes = access;
    s.stride = stride;
    return s;
}

TEST(LoopBehavior, WalksSequentiallyAndWraps)
{
    auto b = Behavior(spec(BehaviorKind::Loop, 64, 8), 0x1000, 1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 10; ++i)
        addrs.push_back(b.next());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(addrs[static_cast<std::size_t>(i)],
                  0x1000u + 8u * static_cast<unsigned>(i));
    EXPECT_EQ(addrs[8], 0x1000u) << "wraps at the region end";
    EXPECT_EQ(b.accessBytes(), 8u);
}

TEST(LoopBehavior, FourByteAccess)
{
    auto b = Behavior(spec(BehaviorKind::Loop, 16, 4), 0, 1);
    EXPECT_EQ(b.next(), 0u);
    EXPECT_EQ(b.next(), 4u);
}

TEST(RandomBehavior, StaysInRegionAndAligned)
{
    auto b =
        Behavior(spec(BehaviorKind::Random, 4096, 8), 0x8000, 3);
    for (int i = 0; i < 2000; ++i) {
        Addr a = b.next();
        EXPECT_GE(a, 0x8000u);
        EXPECT_LT(a, 0x8000u + 4096u);
        EXPECT_EQ(a % 8, 0u);
    }
}

TEST(RandomBehavior, CoversTheRegion)
{
    auto b =
        Behavior(spec(BehaviorKind::Random, 256, 8), 0, 5);
    std::set<Addr> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(b.next());
    EXPECT_EQ(seen.size(), 32u); // all 32 slots eventually drawn
}

TEST(RandomBehavior, DeterministicPerSeed)
{
    auto a = Behavior(spec(BehaviorKind::Random, 4096, 8), 0, 7);
    auto b = Behavior(spec(BehaviorKind::Random, 4096, 8), 0, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(StridedBehavior, ColumnMajorPattern)
{
    // 4 columns of stride 128, 8B elements.
    auto b = Behavior(
        spec(BehaviorKind::Strided, 512, 8, 128), 0, 1);
    // First sweep: 0, 128, 256, 384.
    EXPECT_EQ(b.next(), 0u);
    EXPECT_EQ(b.next(), 128u);
    EXPECT_EQ(b.next(), 256u);
    EXPECT_EQ(b.next(), 384u);
    // Second sweep shifts by one element.
    EXPECT_EQ(b.next(), 8u);
    EXPECT_EQ(b.next(), 136u);
}

TEST(StridedBehavior, RestartsAfterFullMatrix)
{
    auto b = Behavior(
        spec(BehaviorKind::Strided, 64, 8, 32), 0, 1);
    // 2 columns, 4 sweeps: 8 accesses then restart.
    std::vector<Addr> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(b.next());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(b.next(), first[static_cast<std::size_t>(i)]);
}

TEST(StackBehavior, StaysNearTheBase)
{
    auto b =
        Behavior(spec(BehaviorKind::Stack, 2048, 8), 0x4000, 9);
    for (int i = 0; i < 5000; ++i) {
        Addr a = b.next();
        EXPECT_GE(a, 0x4000u);
        EXPECT_LT(a, 0x4000u + 2048u);
    }
}

TEST(StackBehavior, HighTemporalLocality)
{
    auto b =
        Behavior(spec(BehaviorKind::Stack, 2048, 8), 0, 9);
    // Consecutive accesses should mostly land on the same frame.
    unsigned same_frame = 0;
    Addr prev = b.next();
    for (int i = 0; i < 2000; ++i) {
        Addr a = b.next();
        if (a / 64 == prev / 64)
            ++same_frame;
        prev = a;
    }
    EXPECT_GT(same_frame, 1500u);
}

TEST(PointerChaseBehavior, VisitsEveryNodeOncePerCycle)
{
    // 8 nodes of 64B in a 512B region; Sattolo gives one full cycle.
    auto b = Behavior(
        spec(BehaviorKind::PointerChase, 512, 8), 0, 11);
    std::set<Addr> first_cycle;
    for (int i = 0; i < 8; ++i)
        first_cycle.insert(b.next());
    EXPECT_EQ(first_cycle.size(), 8u);
    // The second cycle revisits exactly the same nodes.
    std::set<Addr> second_cycle;
    for (int i = 0; i < 8; ++i)
        second_cycle.insert(b.next());
    EXPECT_EQ(first_cycle, second_cycle);
}

TEST(BehaviorKindNames, AllNamed)
{
    EXPECT_STREQ(behaviorKindName(BehaviorKind::Loop), "loop");
    EXPECT_STREQ(behaviorKindName(BehaviorKind::Random), "random");
    EXPECT_STREQ(behaviorKindName(BehaviorKind::Strided), "strided");
    EXPECT_STREQ(behaviorKindName(BehaviorKind::Stack), "stack");
    EXPECT_STREQ(behaviorKindName(BehaviorKind::PointerChase),
                 "pointer-chase");
}

} // namespace
} // namespace wbsim

namespace wbsim
{
namespace
{

TEST(LoopBehavior, RegionEqualToAccessPinsOneSlot)
{
    auto b = Behavior(spec(BehaviorKind::Loop, 8, 8), 0x100, 1);
    EXPECT_EQ(b.next(), 0x100u);
    EXPECT_EQ(b.next(), 0x100u);
}

TEST(StridedBehavior, RegionSmallerThanStrideClampsToOneColumn)
{
    auto b = Behavior(
        spec(BehaviorKind::Strided, 16, 8, 128), 0, 1);
    // One column: the walk degenerates to a sequential element scan.
    EXPECT_EQ(b.next(), 0u);
    EXPECT_EQ(b.next(), 8u);
    EXPECT_EQ(b.next(), 16u);
}

TEST(StackBehavior, TinyRegionStillWorks)
{
    auto b = Behavior(spec(BehaviorKind::Stack, 64, 8), 0, 1);
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(b.next(), 128u); // min depth of 2 frames
}

TEST(PointerChaseBehavior, DeterministicPerSeed)
{
    auto a = Behavior(
        spec(BehaviorKind::PointerChase, 1024, 8), 0, 42);
    auto b = Behavior(
        spec(BehaviorKind::PointerChase, 1024, 8), 0, 42);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(BehaviorDeath, NonPowerOfTwoAccessPanics)
{
    EXPECT_DEATH(Behavior(spec(BehaviorKind::Loop, 64, 3), 0, 1),
                 "power of two");
}

} // namespace
} // namespace wbsim
