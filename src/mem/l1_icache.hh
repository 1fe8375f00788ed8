/**
 * @file
 * L1 instruction cache: perfect by default (Table 1), with an
 * optional real direct-mapped mode implementing the paper's §4.3
 * "L2-I-fetch stall" discussion.
 */

#ifndef WBSIM_MEM_L1_ICACHE_HH
#define WBSIM_MEM_L1_ICACHE_HH

#include <optional>

#include "mem/cache.hh"

namespace wbsim
{

/** Instruction cache that can be configured as perfect or real. */
class L1ICache
{
  public:
    /** Perfect I-cache: every fetch hits. */
    L1ICache();

    /** Real I-cache with the given geometry. */
    explicit L1ICache(const CacheGeometry &geometry);

    bool isPerfect() const { return !tags_.has_value(); }

    /** Fetch the line containing @p pc. @return true on hit. */
    bool
    fetch(Addr pc)
    {
        if (!tags_ || tags_->access(pc)) {
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /** True when fetch(@p pc) would hit; changes no state. */
    bool probe(Addr pc) const { return !tags_ || tags_->probe(pc); }

    /**
     * Exactly @p n fetch(pc) calls that all hit, in O(1) (the line
     * holding @p pc must be resident): the tags, the LRU clock and
     * the hit counters end as n fetches would leave them. Charges
     * the rest of a sequential run inside one line.
     */
    void fetchRepeat(Addr pc, Count n);

    /** Fill after a fetch miss (real mode only). */
    void fill(Addr pc);

    Count hits() const { return hits_.value(); }
    Count misses() const { return misses_.value(); }
    double hitRate() const;

    /** Reset counters (content retained): for warmup support. */
    void resetStats();

    /** The cache as a checkpoint keeps it (see Cache::Image). */
    struct Image
    {
        std::optional<Cache::Image> tags; //!< empty when perfect
        stats::Counter hits;
        stats::Counter misses;
    };

    Image image() const;
    /** Adopt @p image (same mode and geometry): see Cache::restore. */
    void restore(const Image &image);

  private:
    std::optional<Cache> tags_;
    stats::Counter hits_;
    stats::Counter misses_;
};

} // namespace wbsim

#endif // WBSIM_MEM_L1_ICACHE_HH
