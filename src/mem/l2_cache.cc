#include "mem/l2_cache.hh"

#include "util/logging.hh"

namespace wbsim
{

L2Cache::L2Cache() = default;

L2Cache::L2Cache(const CacheGeometry &geometry)
    : tags_(std::in_place, geometry, "L2")
{
}

const CacheGeometry *
L2Cache::geometry() const
{
    return tags_ ? &tags_->geometry() : nullptr;
}

void
L2Cache::recordEviction(const std::optional<Eviction> &eviction,
                        L2Outcome &outcome)
{
    if (!eviction)
        return;
    outcome.invalidation = eviction->blockAddr;
    if (eviction->dirty)
        outcome.dirtyWriteBack = true;
}

L2Outcome
L2Cache::read(Addr addr)
{
    L2Outcome outcome;
    if (!tags_) {
        ++read_hits_;
        return outcome;
    }
    if (tags_->access(addr)) {
        ++read_hits_;
        return outcome;
    }
    ++read_misses_;
    outcome.hit = false;
    outcome.memoryFetch = true;
    recordEviction(tags_->allocate(addr, /*dirty=*/false), outcome);
    return outcome;
}

L2Outcome
L2Cache::write(Addr addr, bool full_line)
{
    L2Outcome outcome;
    if (!tags_) {
        ++write_hits_;
        return outcome;
    }
    if (tags_->access(addr, /*make_dirty=*/true)) {
        ++write_hits_;
        return outcome;
    }
    ++write_misses_;
    outcome.hit = false;
    outcome.memoryFetch = !full_line; // fetch-on-write for partials
    recordEviction(tags_->allocate(addr, /*dirty=*/true), outcome);
    return outcome;
}

bool
L2Cache::probe(Addr addr) const
{
    return !tags_ || tags_->probe(addr);
}

void
L2Cache::resetStats()
{
    read_hits_.reset();
    read_misses_.reset();
    write_hits_.reset();
    write_misses_.reset();
}

L2Cache::Image
L2Cache::image() const
{
    Image image{std::nullopt, read_hits_, read_misses_, write_hits_,
                write_misses_};
    if (tags_)
        image.tags = tags_->image();
    return image;
}

void
L2Cache::restore(const Image &image)
{
    wbsim_assert(tags_.has_value() == image.tags.has_value(),
                 "L2 image of the other mode");
    if (tags_)
        tags_->restore(*image.tags);
    read_hits_ = image.readHits;
    read_misses_ = image.readMisses;
    write_hits_ = image.writeHits;
    write_misses_ = image.writeMisses;
}

double
L2Cache::readHitRate() const
{
    return stats::ratio(read_hits_.value(),
                        read_hits_.value() + read_misses_.value());
}

} // namespace wbsim
