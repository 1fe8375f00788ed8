/**
 * @file
 * The slot machinery shared by every store-buffer organisation,
 * restructured as structure-of-arrays (DESIGN.md §12): parallel
 * lanes for the entry base tags, word-valid masks, cached
 * popcounts, seq/lastUse/allocCycle stamps, plus a packed occupancy
 * bitmask, with the intrusive ordering links packed into an
 * `int32_t` pair per slot. The load-hazard probe, the coalescing
 * merge-target lookup, and the flush victim scans are branch-free
 * sweeps over the contiguous lanes (the src/util/simd.hh kernels).
 *
 * Every kernel answer has a naive O(depth) reference scan; the
 * `naiveScan` config serves queries from the scans and `crossCheck`
 * asserts both agree on every query (DESIGN.md "Performance").
 */

#ifndef WBSIM_CORE_POLICY_ENTRY_STORE_HH
#define WBSIM_CORE_POLICY_ENTRY_STORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "core/store_buffer.hh"
#include "obs/metrics.hh"
#include "util/bits.hh"
#include "util/simd.hh"

namespace wbsim
{

class VictimSelector;

/** The per-entry bookkeeping that stays AoS: the intrusive ordering
 *  list (allocation or recency order). Packed so eight slots share
 *  one 64-byte cache line. */
struct EntryLinks
{
    std::int32_t prev = -1;
    std::int32_t next = -1;
};
static_assert(sizeof(EntryLinks) == 8,
              "EntryLinks must stay an int32_t pair (8 per line)");

/** What the intrusive ordering list sorts by. */
enum class EntryOrder : std::uint8_t
{
    Allocation, //!< head = oldest allocation (FIFO write buffer)
    Recency,    //!< head = least recently used (write cache)
};

/** SoA entry slots, their sweep kernels, and the reference scans. */
class EntryStore
{
  public:
    EntryStore(const WriteBufferConfig &config, unsigned line_bytes,
               EntryOrder order);

    /** Wire the selector whose caches track attach/detach/merge
     *  (nullptr detaches; cloneRebound rewires). */
    void setSelector(VictimSelector *selector);

    /** Publish occupancy into @p metrics under @p id (nullptr
     *  detaches). */
    void
    setOccupancyGauge(obs::MetricsRegistry *metrics, obs::MetricId id)
    {
        metrics_ = metrics;
        m_occupancy_ = id;
    }

    /** @name Per-slot lane access (replaces the old AoS entry()). */
    /// @{
    bool
    validAt(std::size_t index) const
    {
        return ((occ_[index >> 6] >> (index & 63)) & 1u) != 0;
    }
    Addr base(std::size_t index) const { return base_[index]; }
    std::uint32_t
    validMask(std::size_t index) const
    {
        return valid_mask_[index];
    }
    std::uint8_t
    validWords(std::size_t index) const
    {
        return valid_words_[index];
    }
    std::uint64_t seq(std::size_t index) const { return seq_[index]; }
    std::uint64_t
    lastUse(std::size_t index) const
    {
        return last_use_[index];
    }
    Cycle
    allocCycle(std::size_t index) const
    {
        return alloc_cycle_[index];
    }
    /// @}

    /** @name Store-wide state. */
    /// @{
    std::size_t size() const { return depth_; }
    unsigned entryBytes() const { return entry_bytes_; }
    unsigned lineBytes() const { return line_bytes_; }
    bool hasFree() const { return !free_stack_.empty(); }
    unsigned validCount() const { return valid_count_; }
    int listHead() const { return list_head_; }
    EntryOrder order() const { return order_; }
    bool naiveScan() const { return naive_scan_; }
    bool crossCheck() const { return cross_check_; }
    /// @}

    /** The lane arrays as the sweep kernels see them (padded to a
     *  kLanePad multiple; pad lanes' occupancy bits stay clear). */
    simd::Lanes
    lanes() const
    {
        return {base_.data(), valid_mask_.data(), seq_.data(),
                occ_.data(), padded_};
    }

    /**
     * Pop a free slot, fill its lanes with a fresh entry (base,
     * mask, allocation cycle, next seq/use stamps) and register it
     * with every index. The caller must have ensured a free slot
     * exists.
     * @return the slot index.
     */
    std::size_t
    allocate(Addr base, std::uint32_t mask, Cycle at)
    {
        wbsim_assert(!free_stack_.empty(),
                     "allocating with no free entry");
        auto index = static_cast<std::size_t>(free_stack_.back());
        free_stack_.pop_back();
        base_[index] = base;
        valid_mask_[index] = mask;
        occ_[index >> 6] |= std::uint64_t{1} << (index & 63);
        last_use_[index] = ++use_clock_;
        seq_[index] = next_seq_++;
        alloc_cycle_[index] = at;
        attachEntry(index);
        return index;
    }

    /** Invalidate the entry at @p index and drop it from every
     *  index (retirement, flush, eviction). */
    void
    release(std::size_t index)
    {
        wbsim_assert(validAt(index), "detaching an invalid entry");
        --valid_count_;

        EntryLinks &links = links_[index];
        if (links.prev >= 0)
            links_[static_cast<std::size_t>(links.prev)].next =
                links.next;
        else
            list_head_ = links.next;
        if (links.next >= 0)
            links_[static_cast<std::size_t>(links.next)].prev =
                links.prev;
        else
            list_tail_ = links.prev;

        occ_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
        valid_mask_[index] = 0;
        valid_words_[index] = 0;
        lineFilterAdjust(index, -1);
        links.prev = links.next = -1;
        free_stack_.push_back(static_cast<int>(index));

        if (selector_active_)
            selectorDetach(index);
        publishOccupancy();
    }

    /** Fold @p mask into the entry at @p index (coalescing); in
     *  recency order the merge is also a use. */
    void
    merge(std::size_t index, std::uint32_t mask)
    {
        wbsim_assert(validAt(index), "merging into an invalid entry");
        valid_mask_[index] |= mask;
        valid_words_[index] =
            static_cast<std::uint8_t>(popcount32(valid_mask_[index]));
        if (selector_active_)
            selectorAttachOrMerge(index);
        if (order_ == EntryOrder::Recency)
            touch(index);
    }

    /** Move the entry to the most-recent end (recency order only). */
    void
    touch(std::size_t index)
    {
        wbsim_assert(order_ == EntryOrder::Recency,
                     "touch on an allocation-ordered store");
        last_use_[index] = ++use_clock_;
        if (list_tail_ == static_cast<int>(index))
            return;
        EntryLinks &links = links_[index];
        // Unlink (not the tail, so next >= 0)...
        if (links.prev >= 0)
            links_[static_cast<std::size_t>(links.prev)].next =
                links.next;
        else
            list_head_ = links.next;
        links_[static_cast<std::size_t>(links.next)].prev = links.prev;
        // ...and relink at the most-recent end.
        links.prev = list_tail_;
        links.next = -1;
        links_[static_cast<std::size_t>(list_tail_)].next =
            static_cast<int>(index);
        list_tail_ = static_cast<int>(index);
    }

    /**
     * Newest entry at @p base, skipping @p exclude (the slot of an
     * entry mid-retirement, or -1). Serves both the write buffer's
     * merge-target lookup and the write cache's block lookup (blocks
     * are unique there under coalescing, so "newest" is "the one").
     * A single newestMatch sweep over the base/seq lanes, skipped
     * when the line filter proves no entry starts in @p base's line
     * (exact-negative, as for probeLoad: a valid entry at @p base
     * covers that line, so its bucket is non-zero).
     */
    int
    findMergeTarget(Addr base, int exclude) const
    {
        if (naive_scan_ || cross_check_)
            return findMergeTargetSlow(base, exclude);
        if (!lineResident(base))
            return -1;
        return simd::newestMatch(lanes(), base, exclude);
    }

    /** Oldest valid entry by allocation order (FIFO flushes, the
     *  age-timeout trigger). O(1) in allocation order, an
     *  oldestValid sweep in recency order. */
    int oldestBySeq() const;

    /** Oldest valid entry (by seq) overlapping [line_base,
     *  line_end) — flush-item-only's victim. */
    int oldestOverlapping(Addr line_base, Addr line_end) const;

    /** Probe for a load; kernel/naive/cross-checked per config. */
    LoadProbe probeLoad(Addr addr, unsigned size) const;

    /**
     * Exact-negative residency filter for the probed L1 line: the
     * counter for a line's hash bucket is non-zero whenever any
     * valid entry covers any byte of that line, so a zero bucket
     * proves the probe misses (both the overlap test and the
     * base-equality test imply overlap with the probed line) and
     * probeLoad can skip the sweep. Collisions only cost the sweep.
     */
    bool
    lineResident(Addr line_base) const
    {
        return line_filter_[(line_base >> line_shift_)
                            % kLineFilterBuckets] != 0;
    }

    /** Word-valid mask an access covers within its entry. */
    std::uint32_t
    wordMask(Addr addr, unsigned size) const
    {
        Addr offset = addr & (entry_bytes_ - 1);
        wbsim_assert(offset + size <= entry_bytes_,
                     "access crosses a store-buffer entry boundary");
        unsigned first = static_cast<unsigned>(offset >> word_shift_);
        unsigned last =
            static_cast<unsigned>((offset + size - 1) >> word_shift_);
        return static_cast<std::uint32_t>((std::uint64_t{2} << last)
                                          - (std::uint64_t{1} << first));
    }

    /** occupancy() when scan-serving or cross-checking is on. */
    unsigned occupancySlow() const;

    /** Bytes the lane arrays and the free-slot stack hold on the
     *  heap. */
    std::size_t
    heapBytes() const
    {
        auto held = [](const auto &lane) {
            return lane.capacity() * sizeof(lane[0]);
        };
        return held(base_) + held(valid_mask_) + held(seq_)
            + held(last_use_) + held(alloc_cycle_) + held(valid_words_)
            + held(occ_) + held(links_) + held(free_stack_);
    }

    /** @name Reference scans (used by selectors and cross-checks). */
    /// @{
    unsigned naiveCountValid() const;
    int naiveOldestBySeq() const;
    int naiveLeastRecent() const;
    /// @}

    /**
     * Panic unless every incremental index agrees with a
     * from-scratch recomputation over the lane arrays.
     */
    void verifyIntegrity() const;

  private:
    LoadProbe naiveProbeLoad(Addr addr, unsigned size) const;
    LoadProbe kernelProbeLoad(Addr addr, unsigned size) const;
    int naiveMergeTarget(Addr base, int exclude) const;
    int findMergeTargetSlow(Addr base, int exclude) const;

    /** The one publish site for the occupancy-gauge handle: attach
     *  and release both report through it. */
    void
    publishOccupancy()
    {
        if (metrics_ != nullptr)
            metrics_->set(m_occupancy_, valid_count_);
    }

    /** Register a just-filled entry with every index. */
    void
    attachEntry(std::size_t index)
    {
        wbsim_assert(validAt(index), "attaching an invalid entry");
        ++valid_count_;
        valid_words_[index] =
            static_cast<std::uint8_t>(popcount32(valid_mask_[index]));
        lineFilterAdjust(index, +1);

        EntryLinks &links = links_[index];
        links.prev = list_tail_;
        links.next = -1;
        if (list_tail_ >= 0)
            links_[static_cast<std::size_t>(list_tail_)].next =
                static_cast<int>(index);
        else
            list_head_ = static_cast<int>(index);
        list_tail_ = static_cast<int>(index);

        if (selector_active_)
            selectorAttachOrMerge(index);
        publishOccupancy();
    }

    /** @name Out-of-line notification calls of an entry-tracking
     *  selector (off the default policies' fast path). */
    /// @{
    void selectorAttachOrMerge(std::size_t index);
    void selectorDetach(std::size_t index);
    /// @}

    /** Count the entry at @p index in (or out of) the residency
     *  filter, once per L1 line its footprint touches. */
    void
    lineFilterAdjust(std::size_t index, int delta)
    {
        Addr first = base_[index] >> line_shift_;
        Addr last = (base_[index] + entry_bytes_ - 1) >> line_shift_;
        for (Addr line = first; line <= last; ++line)
            line_filter_[line % kLineFilterBuckets] =
                static_cast<std::uint16_t>(
                    line_filter_[line % kLineFilterBuckets] + delta);
    }

    unsigned entry_bytes_;
    unsigned line_bytes_;
    unsigned word_shift_; //!< log2(wordBytes): wordMask avoids division
    unsigned line_shift_; //!< log2(lineBytes): filter avoids division
    EntryOrder order_;
    bool naive_scan_;
    bool cross_check_;

    std::size_t depth_;  //!< logical entry count
    std::size_t padded_; //!< depth_ rounded up to simd::kLanePad

    /** @name SoA lanes (each sized padded_; pad lanes stay zero and
     *  their occupancy bits stay clear, so kernels never need a
     *  scalar tail). */
    /// @{
    std::vector<Addr> base_;
    std::vector<std::uint32_t> valid_mask_;
    std::vector<std::uint64_t> seq_;
    std::vector<std::uint64_t> last_use_;
    std::vector<Cycle> alloc_cycle_;
    std::vector<std::uint8_t> valid_words_;
    std::vector<std::uint64_t> occ_; //!< packed occupancy bitmask
    std::vector<EntryLinks> links_;  //!< ordering-list AoS remainder
    /// @}

    std::uint64_t next_seq_ = 1;
    std::uint64_t use_clock_ = 0;

    /** @name Incremental indexes over the lanes. */
    /// @{
    unsigned valid_count_ = 0;    //!< number of valid entries
    std::vector<int> free_stack_; //!< invalid entry slots
    int list_head_ = -1;          //!< oldest / least-recent entry
    int list_tail_ = -1;          //!< newest / most-recent entry
    /// @}

    /** Line-residency counters for the probe miss fast path. Depth
     *  is small (tens) and footprints a few lines, so uint16_t
     *  cannot saturate. */
    static constexpr std::size_t kLineFilterBuckets = 64;
    std::array<std::uint16_t, kLineFilterBuckets> line_filter_{};

    VictimSelector *selector_ = nullptr;
    /** selector_ != nullptr && selector_->tracksEntries(). */
    bool selector_active_ = false;
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::MetricId m_occupancy_ = 0;
};

} // namespace wbsim

#endif // WBSIM_CORE_POLICY_ENTRY_STORE_HH
