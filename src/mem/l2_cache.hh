/**
 * @file
 * Unified second-level cache: perfect (the paper's baseline, §2.1)
 * or a real write-back tag store with strict inclusion over L1
 * (§4.2).
 *
 * The L2 model is functional; the Simulator charges L2-port and
 * main-memory cycles based on the outcome descriptors returned here.
 */

#ifndef WBSIM_MEM_L2_CACHE_HH
#define WBSIM_MEM_L2_CACHE_HH

#include <optional>

#include "mem/cache.hh"

namespace wbsim
{

/** Outcome of one functional L2 access. */
struct L2Outcome
{
    /** The access hit in L2 (perfect L2 always hits). */
    bool hit = true;
    /** A line was fetched from main memory (demand or fetch-on-write). */
    bool memoryFetch = false;
    /** A dirty line was written back to memory. */
    bool dirtyWriteBack = false;
    /** The line evicted from L2, if any; L1 must back-invalidate it
     *  to keep strict inclusion. Never set for perfect L2. */
    std::optional<Addr> invalidation;
};

/** Perfect or real unified write-back L2. */
class L2Cache
{
  public:
    /** Perfect L2: every access hits, nothing is tracked. */
    L2Cache();

    /** Real L2 with the given geometry. */
    explicit L2Cache(const CacheGeometry &geometry);

    bool isPerfect() const { return !tags_.has_value(); }
    const CacheGeometry *geometry() const;

    /**
     * Demand read (L1 load-miss fill or I-fetch).
     * On a miss the line is fetched from memory and allocated clean.
     */
    L2Outcome read(Addr addr);

    /**
     * Write from the write buffer (retirement or flush).
     * Hit: mark dirty. Miss: allocate dirty; a partial line
     * (@p full_line false) requires a fetch-on-write merge from
     * memory first, a full line is written without a fetch.
     *
     * The paper leaves L2 write-miss handling unspecified; this
     * read-modify-write treatment is the documented substitution
     * (DESIGN.md §3).
     */
    L2Outcome write(Addr addr, bool full_line);

    /** Probe without side effects. */
    bool probe(Addr addr) const;

    /** Read-only tag store access (nullptr for a perfect L2). */
    const Cache *tags() const { return tags_ ? &*tags_ : nullptr; }

    /** @name Statistics (zero / trivial for perfect L2). */
    /// @{
    Count readHits() const { return read_hits_.value(); }
    Count readMisses() const { return read_misses_.value(); }
    Count writeHits() const { return write_hits_.value(); }
    Count writeMisses() const { return write_misses_.value(); }
    /** Hit rate over demand reads — the paper's Table 7 quantity. */
    double readHitRate() const;
    /** Reset counters (content retained): for warmup support. */
    void resetStats();
    /// @}

    /** The cache as a checkpoint keeps it (see Cache::Image). */
    struct Image
    {
        std::optional<Cache::Image> tags; //!< empty when perfect
        stats::Counter readHits;
        stats::Counter readMisses;
        stats::Counter writeHits;
        stats::Counter writeMisses;
    };

    Image image() const;
    /** Adopt @p image (same mode and geometry): see Cache::restore. */
    void restore(const Image &image);

  private:
    std::optional<Cache> tags_;
    stats::Counter read_hits_;
    stats::Counter read_misses_;
    stats::Counter write_hits_;
    stats::Counter write_misses_;

    void recordEviction(const std::optional<Eviction> &eviction,
                        L2Outcome &outcome);
};

} // namespace wbsim

#endif // WBSIM_MEM_L2_CACHE_HH
