#include "mem/l1_dcache.hh"

namespace wbsim
{

L1DataCache::L1DataCache(const CacheGeometry &geometry)
    : tags_(geometry, "L1D")
{
}

std::optional<Eviction>
L1DataCache::fill(Addr addr)
{
    // Write-through means L1 lines are never dirty.
    return tags_.allocate(addr, /*dirty=*/false);
}

L1DataCache::Image
L1DataCache::image() const
{
    return {tags_.image(), load_hits_, load_misses_, store_hits_,
            store_misses_};
}

void
L1DataCache::restore(const Image &image)
{
    tags_.restore(image.tags);
    load_hits_ = image.loadHits;
    load_misses_ = image.loadMisses;
    store_hits_ = image.storeHits;
    store_misses_ = image.storeMisses;
}

double
L1DataCache::loadHitRate()  const
{
    return stats::ratio(load_hits_.value(),
                        load_hits_.value() + load_misses_.value());
}

void
L1DataCache::resetStats()
{
    load_hits_.reset();
    load_misses_.reset();
    store_hits_.reset();
    store_misses_.reset();
    tags_.resetStats();
}

} // namespace wbsim
