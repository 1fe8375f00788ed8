/**
 * @file
 * Generic set-associative cache tag store with true-LRU replacement.
 *
 * The simulator separates *function* from *timing*: tag stores like
 * this one answer hit/miss/eviction questions, while all cycle
 * accounting happens in the Simulator. No data values are modelled;
 * the paper's study depends only on address behaviour.
 */

#ifndef WBSIM_MEM_CACHE_HH
#define WBSIM_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/bits.hh"
#include "util/lint.hh"
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
  public:
    Cache(const CacheGeometry &geometry, std::string name);

    const CacheGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

    /** Line-align an address. */
    Addr blockAlign(Addr addr) const;

    /**
     * Look up @p addr; promotes the line to MRU on hit.
     * @return true on hit.
     */
    bool
    access(Addr addr)
    {
        if (Line *line = findLine(addr)) {
            line->lastUse = ++useClock_;
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /**
     * Exactly @p n access(addr) calls in O(1): the tags, the LRU
     * clock and the hit/miss counters end as n back-to-back lookups
     * would leave them (n hits stamping the line n times, or n
     * misses allocating nothing).
     * @return true on hit.
     */
    WBSIM_HOT bool
    touchRepeat(Addr addr, Count n)
    {
        if (Line *line = findLine(addr)) {
            useClock_ += n;
            if (n != 0)
                line->lastUse = useClock_;
            hits_ += n;
            return true;
        }
        misses_ += n;
        return false;
    }

    /** Look up without disturbing replacement state. */
    bool probe(Addr addr) const { return findLine(addr) != nullptr; }

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
    std::uint64_t validLines() const;

    /** Bytes of the line array, valid lines or not. */
    std::size_t arrayBytes() const { return lines_.size() * sizeof(Line); }

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
     * valid lines only, plus the LRU clock and the counters. An
     * invalid line's tag and stamp are never read (findLine skips
     * invalid ways; victimLine takes the first invalid way without
     * looking further), so leaving them out loses nothing.
     */
    struct Image
    {
        /** One valid line, packed no larger than a line of the
         *  cache's own array. */
        struct Line
        {
            Addr tag = 0;
            std::uint64_t lastUse = 0;
            std::uint32_t index = 0; //!< slot in the line array
            bool dirty = false;
        };

        std::vector<Line> lines;
        std::uint64_t useClock = 0;
        stats::Counter hits;
        stats::Counter misses;

        /** Bytes the line list holds on the heap. */
        std::size_t
        heapBytes() const
        {
            return lines.capacity() * sizeof(Line);
        }
    };

    /** Capture the valid lines, the LRU clock and the counters. */
    Image image() const;

    /**
     * Adopt @p image, which must come from a cache of the same
     * geometry: every line not in it ends invalid, so no line of
     * this cache's earlier contents survives.
     */
    void restore(const Image &image);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0; //!< LRU timestamp
    };

    CacheGeometry geometry_;
    std::string name_;
    std::vector<Line> lines_;
    std::uint64_t setShift_;
    std::uint64_t setMask_;
    std::uint64_t useClock_ = 0;
    stats::Counter hits_;
    stats::Counter misses_;

    Line *
    findLine(Addr addr)
    {
        Addr tag = alignDown(addr, geometry_.lineBytes);
        std::size_t base = setIndex(addr) * geometry_.associativity;
        for (std::size_t w = 0; w < geometry_.associativity; ++w) {
            Line &line = lines_[base + w];
            if (line.valid && line.tag == tag)
                return &line;
        }
        return nullptr;
    }

    const Line *
    findLine(Addr addr) const
    {
        return const_cast<Cache *>(this)->findLine(addr);
    }

    Line *victimLine(Addr addr);

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> setShift_) & setMask_);
    }
};

} // namespace wbsim

#endif // WBSIM_MEM_CACHE_HH
