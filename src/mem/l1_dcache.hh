/**
 * @file
 * The paper's L1 data cache: write-through with write-around.
 *
 * Baseline: 8 KB, direct-mapped, 32-byte lines (Table 1). Loads that
 * miss are filled by the simulator after the L2 read; stores never
 * allocate (write-around) and always propagate to the write buffer.
 */

#ifndef WBSIM_MEM_L1_DCACHE_HH
#define WBSIM_MEM_L1_DCACHE_HH

#include "mem/cache.hh"

namespace wbsim
{

/** Write-through, write-around L1 data cache (tag store + policy). */
class L1DataCache
{
  public:
    explicit L1DataCache(const CacheGeometry &geometry);

    const CacheGeometry &geometry() const { return tags_.geometry(); }
    Addr blockAlign(Addr addr) const { return tags_.blockAlign(addr); }

    /** Load lookup. @return true on hit. Counts load statistics. */
    bool
    load(Addr addr)
    {
        if (tags_.access(addr)) {
            ++load_hits_;
            return true;
        }
        ++load_misses_;
        return false;
    }

    /**
     * Store lookup. On a hit the line is updated in place (tag-only
     * model: just an LRU touch); on a miss nothing is allocated
     * (write-around). Either way the store goes to the write buffer.
     * @return true on hit.
     */
    bool
    store(Addr addr)
    {
        if (tags_.access(addr)) {
            ++store_hits_;
            return true;
        }
        ++store_misses_;
        return false;
    }

    /** Fill after a load miss. @return the evicted line, if any. */
    std::optional<Eviction> fill(Addr addr);

    /** Probe without side effects (used by the write buffer model). */
    bool probe(Addr addr) const { return tags_.probe(addr); }

    /** Read-only access to the tag store (invariant checks). */
    const Cache &tags() const { return tags_; }

    /** Back-invalidation for strict inclusion with a real L2. */
    bool invalidate(Addr addr) { return tags_.invalidate(addr); }

    /** @name Statistics. */
    /// @{
    Count loadHits() const { return load_hits_.value(); }
    Count loadMisses() const { return load_misses_.value(); }
    Count storeHits() const { return store_hits_.value(); }
    Count storeMisses() const { return store_misses_.value(); }
    /** Load hit rate, the quantity of the paper's Table 5. */
    double loadHitRate() const;
    void resetStats();
    /// @}

    /** The cache as a checkpoint keeps it (see Cache::Image). */
    struct Image
    {
        Cache::Image tags;
        stats::Counter loadHits;
        stats::Counter loadMisses;
        stats::Counter storeHits;
        stats::Counter storeMisses;
    };

    Image image() const;
    /** Adopt @p image (same geometry): see Cache::restore. */
    void restore(const Image &image);

  private:
    Cache tags_;
    stats::Counter load_hits_;
    stats::Counter load_misses_;
    stats::Counter store_hits_;
    stats::Counter store_misses_;
};

} // namespace wbsim

#endif // WBSIM_MEM_L1_DCACHE_HH
