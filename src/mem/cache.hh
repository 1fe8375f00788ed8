/**
 * @file
 * Generic set-associative cache tag store with true-LRU replacement.
 *
 * The simulator separates *function* from *timing*: tag stores like
 * this one answer hit/miss/eviction questions, while all cycle
 * accounting happens in the Simulator. No data values are modelled;
 * the paper's study depends only on address behaviour.
 *
 * Each line is one 8-B word: the line-aligned tag with the valid and
 * dirty bits in its low bits. LRU needs no stamps: each set keeps
 * its valid lines in its first ways, most recent first, so a hit
 * moves its line to way 0, and a fill enters at way 0 and pushes the
 * set's LRU line out of the last way. A checkpoint image is the
 * valid words in array order (DESIGN.md §7).
 */

#ifndef WBSIM_MEM_CACHE_HH
#define WBSIM_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/bits.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace wbsim
{

/** Geometry of a cache tag store. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 8 * 1024;
    std::uint64_t lineBytes = 32;
    std::uint64_t associativity = 1;

    /** Every field once, in wire and fingerprint order, as
     *  visit(wire key, member). */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        visit("size_bytes", &CacheGeometry::sizeBytes);
        visit("line_bytes", &CacheGeometry::lineBytes);
        visit("associativity", &CacheGeometry::associativity);
    }

    std::uint64_t sets() const;
    /** fatal() unless all fields are consistent powers of two. */
    void validate(const std::string &what) const;
    /** Non-fatal validate(): the first inconsistency, or "". */
    std::string validationError(const std::string &what) const;
};

/** Outcome of an allocation: the victim line, if one was evicted. */
struct Eviction
{
    Addr blockAddr = 0;
    bool dirty = false;
};

/**
 * A set-associative tag store with per-line valid and dirty bits and
 * true LRU. Addresses are byte addresses; all interfaces operate on
 * the containing line.
 */
class Cache
{
    /** @name A line's tag word: block address | kDirty | kValid.
     *  Lines are at least 4 B (validate()), so a block address
     *  leaves the two flag bits clear. An invalid line's word is 0. */
    /// @{
    static constexpr unsigned kFlagBits = 2;
    static constexpr Addr kValid = 1;
    static constexpr Addr kDirty = 2;
    static constexpr Addr kFlags = kValid | kDirty;
    /// @}

  public:
    Cache(const CacheGeometry &geometry, std::string name);

    const CacheGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

    /** Line-align an address. */
    Addr
    blockAlign(Addr addr) const
    {
        return alignDown(addr, geometry_.lineBytes);
    }

    /**
     * Look up @p addr; promotes the line to MRU on hit, and marks it
     * dirty as well when @p make_dirty is set.
     * @return true on hit.
     */
    bool
    access(Addr addr, bool make_dirty = false)
    {
        Addr *set = setOf(addr);
        std::size_t way = findWay(set, addr);
        if (way == ways_) {
            ++misses_;
            return false;
        }
        if (make_dirty)
            set[way] |= kDirty;
        promote(set, way);
        ++hits_;
        return true;
    }

    /**
     * Exactly @p n access(addr) calls in O(1): the tags, the LRU
     * order and the hit/miss counters end as n back-to-back lookups
     * would leave them (n hits promoting the line once, or n misses
     * allocating nothing).
     * @return true on hit.
     */
    bool
    touchRepeat(Addr addr, Count n)
    {
        Addr *set = setOf(addr);
        std::size_t way = findWay(set, addr);
        if (way == ways_) {
            misses_ += n;
            return false;
        }
        if (n != 0)
            promote(set, way);
        hits_ += n;
        return true;
    }

    /** Look up without disturbing replacement state. */
    bool
    probe(Addr addr) const
    {
        return findWay(setOf(addr), addr) != ways_;
    }

    /**
     * Insert the line containing @p addr (must not be present),
     * evicting the LRU line of its set if the set is full.
     * @return the eviction, if any.
     */
    std::optional<Eviction> allocate(Addr addr, bool dirty = false);

    /** Mark the line containing @p addr dirty; false if absent. */
    bool setDirty(Addr addr);

    /** Drop the line containing @p addr; false if absent. */
    bool invalidate(Addr addr);

    /** Drop every line. */
    void invalidateAll();

    /** Number of currently valid lines. */
    std::uint64_t validLines() const { return valid_; }

    /** Bytes of the line array, valid lines or not. */
    std::size_t
    arrayBytes() const
    {
        return lines_.size() * sizeof(Addr);
    }

    /** Invoke @p fn(blockAddr, dirty) for every valid line (for
     *  invariant checking and debugging; no LRU side effects). */
    void forEachValidLine(
        const std::function<void(Addr, bool)> &fn) const;

    /** @name Accumulated access statistics. */
    /// @{
    Count hits() const { return hits_.value(); }
    Count misses() const { return misses_.value(); }
    double hitRate() const;
    void resetStats();
    /// @}

    /**
     * The cache's state as a warm-state checkpoint keeps it: its
     * valid lines in array order, plus the counters. Each set's valid
     * lines fill its first ways, most recent first, so the order of
     * the list alone gives every line its way and its LRU rank.
     */
    struct Image
    {
        /** One valid line in 8 B: its block address, whose flag bits
         *  are always clear, shifted down past them, and its dirty
         *  bit. */
        struct Line
        {
            Addr tag : 64 - kFlagBits = 0;
            bool dirty : 1 = false;
        };

        std::vector<Line> lines;
        stats::Counter hits;
        stats::Counter misses;

        /** Bytes the line list holds on the heap. */
        std::size_t
        heapBytes() const
        {
            return lines.capacity() * sizeof(Line);
        }
    };

    /** Capture the valid lines and the counters. */
    Image image() const;

    /**
     * Adopt @p image, which must come from a cache of the same
     * geometry: every line not in it ends invalid, so no line of
     * this cache's earlier contents survives.
     */
    void restore(const Image &image);

  private:
    CacheGeometry geometry_;
    std::string name_;
    /** One tag word per line, set by set; each set's valid lines
     *  fill its first ways, MRU at way 0. */
    std::vector<Addr> lines_;
    std::size_t ways_;
    std::uint64_t setShift_;
    std::uint64_t setMask_;
    std::uint64_t valid_ = 0;
    stats::Counter hits_;
    stats::Counter misses_;

    Addr *setOf(Addr addr) { return &lines_[setIndex(addr) * ways_]; }

    const Addr *
    setOf(Addr addr) const
    {
        return &lines_[setIndex(addr) * ways_];
    }

    /** The way of @p set that holds @p addr, or ways_ if none. */
    std::size_t
    findWay(const Addr *set, Addr addr) const
    {
        const Addr key = blockAlign(addr) | kValid;
        for (std::size_t w = 0; w < ways_; ++w)
            if ((set[w] & ~kDirty) == key)
                return w;
        return ways_;
    }

    /** Make the line in @p way the set's MRU line: it moves to way 0
     *  and the more recent lines each move down one way. */
    static void
    promote(Addr *set, std::size_t way)
    {
        const Addr line = set[way];
        for (; way > 0; --way)
            set[way] = set[way - 1];
        set[0] = line;
    }

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> setShift_) & setMask_);
    }
};

} // namespace wbsim

#endif // WBSIM_MEM_CACHE_HH
