#include "mem/l1_icache.hh"

#include "util/logging.hh"

namespace wbsim
{

L1ICache::L1ICache() = default;

L1ICache::L1ICache(const CacheGeometry &geometry)
    : tags_(std::in_place, geometry, "L1I")
{
}

void
L1ICache::fetchRepeat(Addr pc, Count n)
{
    if (tags_) {
        bool hit = tags_->touchRepeat(pc, n);
        wbsim_assert(hit || n == 0, "repeated fetch of a line that is "
                                    "not resident");
    }
    hits_ += n;
}

void
L1ICache::fill(Addr pc)
{
    wbsim_assert(tags_.has_value(), "filling a perfect I-cache");
    tags_->allocate(pc);
}

void
L1ICache::resetStats()
{
    hits_.reset();
    misses_.reset();
    if (tags_)
        tags_->resetStats();
}

L1ICache::Image
L1ICache::image() const
{
    Image image{std::nullopt, hits_, misses_};
    if (tags_)
        image.tags = tags_->image();
    return image;
}

void
L1ICache::restore(const Image &image)
{
    wbsim_assert(tags_.has_value() == image.tags.has_value(),
                 "I-cache image of the other mode");
    if (tags_)
        tags_->restore(*image.tags);
    hits_ = image.hits;
    misses_ = image.misses;
}

double
L1ICache::hitRate() const
{
    return stats::ratio(hits_.value(), hits_.value() + misses_.value());
}

} // namespace wbsim
