#include "core/policy/entry_store.hh"

#include <algorithm>

#include "core/policy/victim_selector.hh"
#include "util/logging.hh"

namespace wbsim
{
namespace
{

/** Cross-checking defaults on in debug builds (DESIGN.md). */
constexpr bool kDebugBuild =
#ifdef NDEBUG
    false;
#else
    true;
#endif

/** Lane count rounded up to a kLanePad multiple, so a vectorized
 *  sweep never needs a scalar tail. */
std::size_t
paddedLanes(std::size_t depth)
{
    const std::size_t pad = simd::kLanePad;
    return std::max<std::size_t>((depth + pad - 1) / pad * pad, pad);
}

} // namespace

EntryStore::EntryStore(const WriteBufferConfig &config,
                       unsigned line_bytes, EntryOrder order)
    : entry_bytes_(config.entryBytes), line_bytes_(line_bytes),
      word_shift_(exactLog2(std::max(config.wordBytes, 1u))),
      line_shift_(exactLog2(line_bytes)),
      order_(order), naive_scan_(config.naiveScan),
      cross_check_(config.crossCheck || kDebugBuild),
      depth_(config.depth),
      padded_(paddedLanes(config.depth))
{
    base_.resize(padded_, 0);
    valid_mask_.resize(padded_, 0);
    seq_.resize(padded_, 0);
    last_use_.resize(padded_, 0);
    alloc_cycle_.resize(padded_, 0);
    valid_words_.resize(padded_, 0);
    occ_.resize((padded_ + 63) / 64, 0);
    links_.resize(padded_);
    free_stack_.reserve(config.depth);
    for (unsigned i = config.depth; i > 0; --i)
        free_stack_.push_back(static_cast<int>(i - 1));
}

void
EntryStore::setSelector(VictimSelector *selector)
{
    selector_ = selector;
    selector_active_ =
        selector != nullptr && selector->tracksEntries();
}

void
EntryStore::selectorAttachOrMerge(std::size_t index)
{
    selector_->noteAttachOrMerge(*this, static_cast<int>(index));
}

void
EntryStore::selectorDetach(std::size_t index)
{
    selector_->noteDetach(*this, static_cast<int>(index));
}

unsigned
EntryStore::naiveCountValid() const
{
    unsigned n = 0;
    for (std::size_t i = 0; i < depth_; ++i)
        if (validAt(i))
            ++n;
    return n;
}

unsigned
EntryStore::occupancySlow() const
{
    unsigned naive = naiveCountValid();
    if (cross_check_) {
        wbsim_assert(naive == valid_count_,
                     "occupancy counter diverged from the scan");
        wbsim_assert(simd::countValid(lanes()) == naive,
                     "occupancy kernel diverged from the scan");
    }
    return naive_scan_ ? naive : valid_count_;
}

int
EntryStore::naiveMergeTarget(Addr base, int exclude) const
{
    int best = -1;
    std::uint64_t best_seq = 0;
    for (std::size_t i = 0; i < depth_; ++i) {
        if (!validAt(i) || base_[i] != base)
            continue;
        if (static_cast<int>(i) == exclude)
            continue; // stores cannot merge into a retiring entry
        if (seq_[i] > best_seq) {
            best_seq = seq_[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
EntryStore::findMergeTargetSlow(Addr base, int exclude) const
{
    int naive = naiveMergeTarget(base, exclude);
    bool resident = lineResident(base);
    if (cross_check_) {
        wbsim_assert(resident || naive < 0,
                     "line filter hid a merge target");
        wbsim_assert(
            simd::newestMatch(lanes(), base, exclude) == naive,
            "merge-target kernel diverged from the scan");
    }
    if (naive_scan_)
        return naive;
    return resident ? simd::newestMatch(lanes(), base, exclude) : -1;
}

int
EntryStore::naiveOldestBySeq() const
{
    int best = -1;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (std::size_t i = 0; i < depth_; ++i) {
        if (validAt(i) && seq_[i] < best_seq) {
            best_seq = seq_[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
EntryStore::naiveLeastRecent() const
{
    int best = -1;
    std::uint64_t best_use = ~std::uint64_t{0};
    for (std::size_t i = 0; i < depth_; ++i) {
        if (validAt(i) && last_use_[i] < best_use) {
            best_use = last_use_[i];
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
EntryStore::oldestBySeq() const
{
    if (order_ != EntryOrder::Allocation) {
        // No seq-ordered list to consult: an oldestValid sweep
        // (unique seqs make the min reduction unambiguous).
        if (naive_scan_ || cross_check_) {
            int naive = naiveOldestBySeq();
            if (cross_check_)
                wbsim_assert(simd::oldestValid(lanes()) == naive,
                             "oldest-seq kernel diverged from the scan");
            if (naive_scan_)
                return naive;
        }
        return simd::oldestValid(lanes());
    }
    if (naive_scan_ || cross_check_) {
        int naive = naiveOldestBySeq();
        if (cross_check_)
            wbsim_assert(naive == list_head_,
                         "FIFO head diverged from the scan");
        if (naive_scan_)
            return naive;
    }
    return list_head_;
}

int
EntryStore::oldestOverlapping(Addr line_base, Addr line_end) const
{
    if (naive_scan_ || cross_check_) {
        int naive = -1;
        std::uint64_t naive_seq = ~std::uint64_t{0};
        for (std::size_t i = 0; i < depth_; ++i) {
            if (!validAt(i))
                continue;
            Addr end = base_[i] + entry_bytes_;
            if (base_[i] < line_end && end > line_base
                && seq_[i] < naive_seq) {
                naive_seq = seq_[i];
                naive = static_cast<int>(i);
            }
        }
        if (cross_check_)
            wbsim_assert(
                simd::oldestOverlapping(lanes(), line_base, line_end,
                                        entry_bytes_)
                    == naive,
                "overlap-victim kernel diverged from the scan");
        if (naive_scan_)
            return naive;
    }
    return simd::oldestOverlapping(lanes(), line_base, line_end,
                                   entry_bytes_);
}

LoadProbe
EntryStore::naiveProbeLoad(Addr addr, unsigned size) const
{
    LoadProbe probe;
    Addr line_base = alignDown(addr, line_bytes_);
    Addr line_end = line_base + line_bytes_;
    Addr entry_base = alignDown(addr, entry_bytes_);
    std::uint32_t needed = wordMask(addr, size);
    std::uint32_t found = 0;
    for (std::size_t i = 0; i < depth_; ++i) {
        if (!validAt(i))
            continue;
        Addr end = base_[i] + entry_bytes_;
        if (base_[i] < line_end && end > line_base) {
            probe.blockHit = true;
            probe.hitSeq = std::max(probe.hitSeq, seq_[i]);
        }
        if (base_[i] == entry_base)
            found |= valid_mask_[i];
    }
    probe.wordHit = probe.blockHit && (found & needed) == needed;
    return probe;
}

LoadProbe
EntryStore::kernelProbeLoad(Addr addr, unsigned size) const
{
    Addr line_base = alignDown(addr, line_bytes_);
    simd::ProbeHit hit = simd::probeSweep(
        lanes(), line_base, line_base + line_bytes_,
        alignDown(addr, entry_bytes_), entry_bytes_);
    LoadProbe probe;
    probe.blockHit = hit.blockHit;
    probe.hitSeq = hit.hitSeq;
    std::uint32_t needed = wordMask(addr, size);
    probe.wordHit =
        hit.blockHit && (hit.foundMask & needed) == needed;
    return probe;
}

LoadProbe
EntryStore::probeLoad(Addr addr, unsigned size) const
{
    bool resident = lineResident(alignDown(addr, line_bytes_));
    if (naive_scan_ || cross_check_) {
        LoadProbe naive = naiveProbeLoad(addr, size);
        if (cross_check_) {
            wbsim_assert(resident
                             || (!naive.blockHit && !naive.wordHit
                                 && naive.hitSeq == 0),
                         "residency filter hid a probe hit");
            LoadProbe fast = kernelProbeLoad(addr, size);
            wbsim_assert(fast.blockHit == naive.blockHit
                             && fast.wordHit == naive.wordHit
                             && fast.hitSeq == naive.hitSeq,
                         "load probe diverged from the scan");
        }
        if (naive_scan_)
            return naive;
    }
    if (!resident)
        return LoadProbe{};
    return kernelProbeLoad(addr, size);
}

void
EntryStore::verifyIntegrity() const
{
    // Occupancy counter, bitmask, and free stack.
    unsigned valid = naiveCountValid();
    wbsim_assert(valid_count_ == valid, "occupancy counter diverged");
    wbsim_assert(simd::countValid(lanes()) == valid,
                 "occupancy bitmask diverged");
    for (std::size_t i = depth_; i < padded_; ++i)
        wbsim_assert(!validAt(i), "pad lane marked occupied");
    wbsim_assert(free_stack_.size() == depth_ - valid,
                 "free stack size diverged");
    std::vector<char> stacked(depth_, 0);
    for (int slot : free_stack_) {
        auto index = static_cast<std::size_t>(slot);
        wbsim_assert(index < depth_, "free stack slot range");
        wbsim_assert(!validAt(index), "valid entry on free stack");
        wbsim_assert(!stacked[index], "duplicate slot on free stack");
        stacked[index] = 1;
    }

    // Cached popcounts (invalid lanes hold zeroed masks).
    for (std::size_t i = 0; i < padded_; ++i) {
        wbsim_assert(valid_words_[i]
                         == (validAt(i) ? popcount32(valid_mask_[i])
                                        : 0u),
                     "cached popcount diverged");
        if (!validAt(i))
            wbsim_assert(valid_mask_[i] == 0,
                         "invalid lane holds a stale mask");
    }

    // The ordering list covers every valid entry in ascending order
    // of its sort key (seq for allocation order, lastUse for
    // recency).
    unsigned walked = 0;
    std::uint64_t last_key = 0;
    int prev = -1;
    for (int i = list_head_; i >= 0;
         i = links_[static_cast<std::size_t>(i)].next) {
        auto index = static_cast<std::size_t>(i);
        std::uint64_t key = order_ == EntryOrder::Allocation
            ? seq_[index]
            : last_use_[index];
        wbsim_assert(validAt(index),
                     "invalid entry on the ordering list");
        wbsim_assert(key > last_key, "ordering list out of order");
        wbsim_assert(links_[index].prev == prev,
                     "list back-link broken");
        last_key = key;
        prev = i;
        ++walked;
    }
    wbsim_assert(prev == list_tail_, "list tail diverged");
    wbsim_assert(walked == valid, "ordering list misses entries");

    // Line-residency filter: recount every valid entry's footprint.
    std::array<std::uint16_t, kLineFilterBuckets> expected{};
    for (std::size_t i = 0; i < depth_; ++i) {
        if (!validAt(i))
            continue;
        Addr first = base_[i] >> line_shift_;
        Addr last = (base_[i] + entry_bytes_ - 1) >> line_shift_;
        for (Addr line = first; line <= last; ++line)
            ++expected[line % kLineFilterBuckets];
    }
    wbsim_assert(expected == line_filter_,
                 "line-residency filter diverged");

    // Selector caches (e.g. the fullest-first victim).
    if (selector_ != nullptr)
        selector_->verify(*this);
}

} // namespace wbsim
