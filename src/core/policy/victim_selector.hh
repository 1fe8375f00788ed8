/**
 * @file
 * Victim selectors: *which* entry the shared retirement engine
 * writes back next (Table 2's retirement-order row, plus the write
 * cache's LRU eviction). Each selector gives an indexed O(1) answer
 * and a naive O(depth) reference scan; the engine cross-checks the
 * two under `crossCheck` and serves from the scan under `naiveScan`,
 * exactly like the EntryStore's own indexes.
 */

#ifndef WBSIM_CORE_POLICY_VICTIM_SELECTOR_HH
#define WBSIM_CORE_POLICY_VICTIM_SELECTOR_HH

#include <memory>

#include "core/policy/entry_store.hh"

namespace wbsim
{

/**
 * Which entry retires (or evicts) next. List-head selection is
 * devirtualized on the engine's fast path; the residual dispatch
 * through this interface (fullest-first, naive cross-checks,
 * entry-tracking callbacks) is the documented victim escape hatch
 * (DESIGN.md §10).
 */
class VictimSelector
{
  public:
    virtual ~VictimSelector() = default;

    /** Registry name (the retirement-order vocabulary). */
    virtual const char *name() const = 0;

    /** Indexed victim, or -1 when the store is empty. */
    virtual int pick(const EntryStore &store) const = 0;

    /** Reference-scan victim, or -1 when the store is empty. */
    virtual int naivePick(const EntryStore &store) const = 0;

    /**
     * True when the selector keeps per-entry caches and needs the
     * noteAttachOrMerge/noteDetach callbacks. The store skips the
     * virtual notification calls entirely for stateless selectors,
     * keeping them off the inlined store fast path.
     */
    virtual bool tracksEntries() const { return false; }

    /** The entry at @p index was just attached or grew by a merge. */
    virtual void noteAttachOrMerge(const EntryStore &store, int index);

    /** The entry at @p index was just detached (already invalid). */
    virtual void noteDetach(const EntryStore &store, int index);

    /** Panic unless any selector cache agrees with naivePick(). */
    virtual void verify(const EntryStore &store) const;

    /** Deep copy for snapshot cloneRebound. */
    virtual std::unique_ptr<VictimSelector> clone() const = 0;
};

/**
 * Head of the store's intrusive ordering list: the FIFO-oldest entry
 * in allocation order, the least-recently-used one in recency order.
 */
class ListHeadSelector final : public VictimSelector
{
  public:
    explicit ListHeadSelector(EntryOrder order) : order_(order) {}

    const char *
    name() const override
    {
        return order_ == EntryOrder::Allocation ? "fifo" : "lru-evict";
    }

    int pick(const EntryStore &store) const override;
    int naivePick(const EntryStore &store) const override;
    std::unique_ptr<VictimSelector> clone() const override;

  private:
    EntryOrder order_;
};

/** Most valid words wins, oldest breaks ties; caches its victim. */
class FullestFirstSelector final : public VictimSelector
{
  public:
    const char *name() const override { return "fullest-first"; }

    bool tracksEntries() const override { return true; }

    int pick(const EntryStore &store) const override;
    int naivePick(const EntryStore &store) const override;
    void noteAttachOrMerge(const EntryStore &store, int index) override;
    void noteDetach(const EntryStore &store, int index) override;
    void verify(const EntryStore &store) const override;
    std::unique_ptr<VictimSelector> clone() const override;

  private:
    /** Cached fullest victim (-1 = none). */
    int fullest_ = -1;
};

} // namespace wbsim

#endif // WBSIM_CORE_POLICY_VICTIM_SELECTOR_HH
