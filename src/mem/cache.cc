#include "mem/cache.hh"

#include <algorithm>

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
    if (lineBytes < 4)
        return what + ": cache lines must be at least 4 bytes";
    return "";
}

Cache::Cache(const CacheGeometry &geometry, std::string name)
    : geometry_(geometry), name_(std::move(name))
{
    geometry_.validate(name_);
    lines_.resize(geometry_.sets() * geometry_.associativity);
    ways_ = geometry_.associativity;
    setShift_ = exactLog2(geometry_.lineBytes);
    setMask_ = geometry_.sets() - 1;
}

std::optional<Eviction>
Cache::allocate(Addr addr, bool dirty)
{
    wbsim_assert(!probe(addr), "allocating a line that is present in ",
                 name_);
    // The victim: the first invalid way, else the last way, which
    // holds the LRU line of a full set.
    Addr *set = setOf(addr);
    std::size_t way = 0;
    while (way + 1 < ways_ && (set[way] & kValid))
        ++way;
    std::optional<Eviction> eviction;
    if (set[way] & kValid)
        eviction = Eviction{set[way] & ~kFlags, (set[way] & kDirty) != 0};
    else
        ++valid_;
    set[way] = blockAlign(addr) | (dirty ? kDirty : 0) | kValid;
    promote(set, way);
    return eviction;
}

bool
Cache::setDirty(Addr addr)
{
    Addr *set = setOf(addr);
    std::size_t way = findWay(set, addr);
    if (way == ways_)
        return false;
    set[way] |= kDirty;
    return true;
}

bool
Cache::invalidate(Addr addr)
{
    Addr *set = setOf(addr);
    std::size_t way = findWay(set, addr);
    if (way == ways_)
        return false;
    // The less recent lines each move up one way to close the gap.
    std::copy(set + way + 1, set + ways_, set + way);
    set[ways_ - 1] = 0;
    --valid_;
    return true;
}

void
Cache::invalidateAll()
{
    std::fill(lines_.begin(), lines_.end(), Addr{0});
    valid_ = 0;
}

void
Cache::forEachValidLine(const std::function<void(Addr, bool)> &fn) const
{
    for (Addr line : lines_)
        if (line & kValid)
            fn(line & ~kFlags, (line & kDirty) != 0);
}

Cache::Image
Cache::image() const
{
    static_assert(sizeof(Image::Line) == sizeof(Addr),
                  "an image line must not outgrow a tag word");
    Image image;
    image.lines.reserve(valid_);
    for (Addr line : lines_)
        if (line & kValid)
            image.lines.push_back({line >> kFlagBits,
                                   (line & kDirty) != 0});
    image.hits = hits_;
    image.misses = misses_;
    return image;
}

void
Cache::restore(const Image &image)
{
    invalidateAll();
    // image() lists a set's lines together, MRU first, so each line
    // takes the next way of its set.
    const Addr *previous = nullptr;
    std::size_t way = 0;
    for (const Image::Line &line : image.lines) {
        Addr block = Addr{line.tag} << kFlagBits;
        Addr *set = setOf(block);
        way = set == previous ? way + 1 : 0;
        previous = set;
        wbsim_assert(way < ways_, "image overfills a set of ", name_);
        set[way] = block | (line.dirty ? kDirty : 0) | kValid;
    }
    valid_ = image.lines.size();
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
