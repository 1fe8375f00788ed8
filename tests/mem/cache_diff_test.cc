/**
 * @file
 * Differential test of the packed tag store against a stamp-LRU
 * reference: the straightforward tag store it replaced, where every
 * line carries its own LRU timestamp and the victim is the first
 * invalid way, else the line with the oldest stamp. Seeded random
 * operation streams over many geometries must agree at every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "util/random.hh"

namespace wbsim
{
namespace
{

using LineList = std::vector<std::pair<Addr, bool>>;

/** The reference: one 24-B line per way with an LRU stamp. */
class StampCache
{
  public:
    explicit StampCache(const CacheGeometry &geometry)
        : geometry_(geometry),
          lines_(geometry.sets() * geometry.associativity)
    {
    }

    bool
    access(Addr addr)
    {
        return touchRepeat(addr, 1);
    }

    bool
    touchRepeat(Addr addr, Count n)
    {
        Line *line = find(addr);
        if (line == nullptr) {
            misses_ += n;
            return false;
        }
        clock_ += n;
        if (n != 0)
            line->lastUse = clock_;
        hits_ += n;
        return true;
    }

    bool probe(Addr addr) { return find(addr) != nullptr; }

    std::optional<Eviction>
    allocate(Addr addr, bool dirty)
    {
        Line *set = &lines_[setIndex(addr) * geometry_.associativity];
        Line *victim = nullptr;
        for (std::size_t w = 0; w < geometry_.associativity; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (victim == nullptr || set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        std::optional<Eviction> eviction;
        if (victim->valid)
            eviction = Eviction{victim->tag, victim->dirty};
        *victim = {alignDown(addr, geometry_.lineBytes), true, dirty,
                   ++clock_};
        return eviction;
    }

    bool
    setDirty(Addr addr)
    {
        Line *line = find(addr);
        if (line != nullptr)
            line->dirty = true;
        return line != nullptr;
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = find(addr);
        if (line != nullptr)
            line->valid = false;
        return line != nullptr;
    }

    void
    invalidateAll()
    {
        for (Line &line : lines_)
            line.valid = false;
    }

    std::uint64_t
    validLines() const
    {
        return static_cast<std::uint64_t>(std::count_if(
            lines_.begin(), lines_.end(),
            [](const Line &line) { return line.valid; }));
    }

    LineList
    sortedLines() const
    {
        LineList lines;
        for (const Line &line : lines_)
            if (line.valid)
                lines.emplace_back(line.tag, line.dirty);
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    Count hits() const { return hits_; }
    Count misses() const { return misses_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheGeometry geometry_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    Count hits_ = 0;
    Count misses_ = 0;

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(
            (addr / geometry_.lineBytes) % geometry_.sets());
    }

    Line *
    find(Addr addr)
    {
        const Addr tag = alignDown(addr, geometry_.lineBytes);
        Line *set = &lines_[setIndex(addr) * geometry_.associativity];
        for (std::size_t w = 0; w < geometry_.associativity; ++w)
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        return nullptr;
    }
};

/** A cache's valid lines in array order. */
LineList
arrayLines(const Cache &cache)
{
    LineList lines;
    cache.forEachValidLine(
        [&](Addr addr, bool dirty) { lines.emplace_back(addr, dirty); });
    return lines;
}

LineList
sortedLines(const Cache &cache)
{
    LineList lines = arrayLines(cache);
    std::sort(lines.begin(), lines.end());
    return lines;
}

void
expectSameEviction(const std::optional<Eviction> &packed,
                   const std::optional<Eviction> &stamped)
{
    ASSERT_EQ(packed.has_value(), stamped.has_value());
    if (packed) {
        EXPECT_EQ(packed->blockAddr, stamped->blockAddr);
        EXPECT_EQ(packed->dirty, stamped->dirty);
    }
}

constexpr int kSteps = 4'000;

/**
 * Drive both caches with one seeded stream. Addresses come from a
 * pool of three times as many lines as the cache holds, so sets fill,
 * evict and re-reference; each also carries one of three high tag
 * prefixes, the last near the top of the address space.
 */
void
runDiff(const CacheGeometry &geometry, std::uint64_t seed)
{
    Cache packed(geometry, "packed");
    StampCache stamped(geometry);
    Rng rng(seed);
    const std::uint64_t pool = 3 * geometry.sizeBytes / geometry.lineBytes;
    const Addr prefixes[] = {0, Addr{1} << 40, ~Addr{0} << 48};
    Count round_trips = 0;
    Count evictions = 0;
    for (int step = 0; step < kSteps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const Addr addr = prefixes[rng.nextBelow(3)]
            + rng.nextBelow(pool) * geometry.lineBytes
            + rng.nextBelow(geometry.lineBytes);
        const std::uint64_t op = rng.nextBelow(1000);
        if (op < 300) {
            ASSERT_EQ(packed.access(addr), stamped.access(addr));
        } else if (op < 350) {
            // A write hit: promote and mark dirty in one lookup.
            bool hit = stamped.access(addr);
            if (hit)
                stamped.setDirty(addr);
            ASSERT_EQ(packed.access(addr, /*make_dirty=*/true), hit);
        } else if (op < 500) {
            const Count n = rng.nextBelow(4);
            ASSERT_EQ(packed.touchRepeat(addr, n),
                      stamped.touchRepeat(addr, n));
        } else if (op < 800) {
            ASSERT_EQ(packed.probe(addr), stamped.probe(addr));
            if (!stamped.probe(addr)) {
                const bool dirty = rng.nextBool(0.3);
                std::optional<Eviction> a = packed.allocate(addr, dirty);
                std::optional<Eviction> b = stamped.allocate(addr, dirty);
                expectSameEviction(a, b);
                evictions += b ? 1 : 0;
            }
        } else if (op < 880) {
            ASSERT_EQ(packed.setDirty(addr), stamped.setDirty(addr));
        } else if (op < 985) {
            ASSERT_EQ(packed.invalidate(addr), stamped.invalidate(addr));
        } else if (op < 988) {
            packed.invalidateAll();
            stamped.invalidateAll();
        } else {
            // Round trip through an image into a cache that holds
            // unrelated lines, and carry on with the copy.
            Cache::Image image = packed.image();
            ASSERT_EQ(image.lines.size(), packed.validLines());
            Cache copy(geometry, "copy");
            for (Addr a = 0; a < geometry.sizeBytes;
                 a += 3 * geometry.lineBytes)
                copy.allocate(prefixes[1] + (Addr{1} << 32) + a, true);
            copy.restore(image);
            ASSERT_EQ(arrayLines(copy), arrayLines(packed));
            ASSERT_EQ(copy.hits(), packed.hits());
            ASSERT_EQ(copy.misses(), packed.misses());
            packed = std::move(copy);
            ++round_trips;
        }
        ASSERT_EQ(packed.hits(), stamped.hits());
        ASSERT_EQ(packed.misses(), stamped.misses());
        ASSERT_EQ(packed.validLines(), stamped.validLines());
        ASSERT_EQ(sortedLines(packed), stamped.sortedLines());
    }
    // Guard against a vacuous stream.
    EXPECT_GT(round_trips, 10u);
    EXPECT_GT(evictions, geometry.associativity > 16 ? 20u : 100u);
}

class CacheDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheDiff, PackedMatchesStampLruAtEveryStep)
{
    // 2 KB keeps the widest geometries small: at 16-B lines the
    // fully associative case is 128-way, one set.
    constexpr std::uint64_t kSize = 2 * 1024;
    for (std::uint64_t line : {16u, 32u, 64u}) {
        for (std::uint64_t ways : {std::uint64_t{1}, std::uint64_t{2},
                                   std::uint64_t{4}, std::uint64_t{8},
                                   kSize / line}) {
            const CacheGeometry geometry{kSize, line, ways};
            SCOPED_TRACE("line " + std::to_string(line) + " ways "
                         + std::to_string(ways));
            runDiff(geometry, GetParam());
            if (HasFatalFailure())
                return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CacheDiff, ::testing::Values(1u, 7u, 1009u),
    [](const ::testing::TestParamInfo<std::uint64_t> &info) {
        return "seed" + std::to_string(info.param);
    });

TEST(CacheGeometryDeath, LinesNarrowerThanFourBytesAreFatal)
{
    // A tag word keeps the valid and dirty bits below the line offset.
    EXPECT_EXIT(CacheGeometry({1024, 2, 1}).validate("t"),
                ::testing::ExitedWithCode(1), "at least 4 bytes");
    EXPECT_EQ(CacheGeometry({1024, 4, 1}).validationError("t"), "");
}

} // namespace
} // namespace wbsim
