#include "mem/cache.hh"

#include <algorithm>
#include <limits>

#include "util/bits.hh"
#include "util/logging.hh"

namespace wbsim
{

std::uint64_t
CacheGeometry::sets() const
{
    return sizeBytes / (lineBytes * associativity);
}

void
CacheGeometry::validate(const std::string &what) const
{
    if (std::string error = validationError(what); !error.empty())
        wbsim_fatal(error);
}

std::string
CacheGeometry::validationError(const std::string &what) const
{
    if (!isPowerOfTwo(sizeBytes) || !isPowerOfTwo(lineBytes)
        || !isPowerOfTwo(associativity))
        return what + ": cache size, line size and associativity "
                      "must be powers of two";
    if (lineBytes * associativity > sizeBytes)
        return what + ": cache smaller than one set";
    return "";
}

Cache::Cache(const CacheGeometry &geometry, std::string name)
    : geometry_(geometry), name_(std::move(name))
{
    geometry_.validate(name_);
    lines_.resize(geometry_.sets() * geometry_.associativity);
    setShift_ = exactLog2(geometry_.lineBytes);
    setMask_ = geometry_.sets() - 1;
}

Addr
Cache::blockAlign(Addr addr) const
{
    return alignDown(addr, geometry_.lineBytes);
}

Cache::Line *
Cache::victimLine(Addr addr)
{
    std::size_t base = setIndex(addr) * geometry_.associativity;
    Line *victim = nullptr;
    for (std::size_t w = 0; w < geometry_.associativity; ++w) {
        Line &line = lines_[base + w];
        if (!line.valid)
            return &line; // free way: no eviction needed
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    return victim;
}

std::optional<Eviction>
Cache::allocate(Addr addr, bool dirty)
{
    wbsim_assert(!probe(addr), "allocating a line that is present in ",
                 name_);
    Line *victim = victimLine(addr);
    std::optional<Eviction> eviction;
    if (victim->valid)
        eviction = Eviction{victim->tag, victim->dirty};
    victim->tag = blockAlign(addr);
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++useClock_;
    return eviction;
}

bool
Cache::setDirty(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->dirty = true;
        return true;
    }
    return false;
}

bool
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->valid = false;
        line->dirty = false;
        return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    for (Line &line : lines_) {
        line.valid = false;
        line.dirty = false;
    }
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (const Line &line : lines_)
        if (line.valid)
            ++n;
    return n;
}

void
Cache::forEachValidLine(const std::function<void(Addr, bool)> &fn) const
{
    for (const Line &line : lines_)
        if (line.valid)
            fn(line.tag, line.dirty);
}

Cache::Image
Cache::image() const
{
    static_assert(sizeof(Image::Line) <= sizeof(Line),
                  "an image line must not outgrow a cache line");
    wbsim_assert(lines_.size()
                     <= std::numeric_limits<std::uint32_t>::max(),
                 "too many lines to image in ", name_);
    Image image;
    image.lines.reserve(validLines());
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        if (line.valid)
            image.lines.push_back({line.tag, line.lastUse,
                                   static_cast<std::uint32_t>(i),
                                   line.dirty});
    }
    image.useClock = useClock_;
    image.hits = hits_;
    image.misses = misses_;
    return image;
}

void
Cache::restore(const Image &image)
{
    std::fill(lines_.begin(), lines_.end(), Line{});
    for (const Image::Line &line : image.lines) {
        wbsim_assert(line.index < lines_.size(), "image line ",
                     line.index, " outside ", name_);
        lines_[line.index] = {line.tag, true, line.dirty, line.lastUse};
    }
    useClock_ = image.useClock;
    hits_ = image.hits;
    misses_ = image.misses;
}

double
Cache::hitRate() const
{
    return stats::ratio(hits_.value(), hits_.value() + misses_.value());
}

void
Cache::resetStats()
{
    hits_.reset();
    misses_.reset();
}

} // namespace wbsim
