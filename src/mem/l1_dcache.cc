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
