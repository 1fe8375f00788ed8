/**
 * @file
 * The lazy retirement engine shared by every store-buffer
 * organisation. It owns the background-write timing state — the one
 * retirement that may be in flight, the write cache's eviction
 * register, and how far replay has advanced — and drives it from the
 * pluggable policies: RetirementTrigger says when, VictimSelector
 * says which entry, and the EntryStore provides the slots.
 *
 * advanceTo(now) replays retirement activity strictly before @p now
 * (ties go to the reader: read-bypassing). The no-work case — no
 * write in flight and every trigger idle — stays inline with zero
 * virtual calls; anything else goes through the out-of-line replay
 * loop.
 */

#ifndef WBSIM_CORE_POLICY_RETIREMENT_ENGINE_HH
#define WBSIM_CORE_POLICY_RETIREMENT_ENGINE_HH

#include <memory>
#include <vector>

#include "core/policy/entry_store.hh"
#include "core/policy/retirement_trigger.hh"
#include "core/policy/victim_selector.hh"
#include "mem/l2_port.hh"

namespace wbsim
{

/** Shared background-write engine behind both organisations. */
class RetirementEngine
{
  public:
    /**
     * @param store the entry slots (also consulted by the triggers).
     * @param port the shared L2 port.
     * @param hook the organisation's L2 write callback (by
     *        reference: cloneRebound rebinds it).
     * @param config validated configuration.
     * @param stats the organisation's counters (shared publish site).
     * @param selector victim policy (owned by the organisation).
     * @param triggers trigger composition from the policy factory.
     */
    RetirementEngine(EntryStore &store, L2Port &port,
                     const L2WriteHook &hook,
                     const WriteBufferConfig &config,
                     StoreBufferStats &stats, VictimSelector &selector,
                     std::vector<std::unique_ptr<RetirementTrigger>>
                         triggers);

    /** cloneRebound's copy: policy state, rebound references (every
     *  reference must point into the cloning organisation). */
    RetirementEngine(const RetirementEngine &other, EntryStore &store,
                     L2Port &port, const L2WriteHook &hook,
                     const WriteBufferConfig &config,
                     StoreBufferStats &stats, VictimSelector &selector);

    /** Replay retirement activity up to @p now. */
    void
    advanceTo(Cycle now)
    {
        if (!retire_in_flight_ && trigger_idle_ && fast_when_idle_) {
            if (now > engine_now_)
                engine_now_ = now;
            return;
        }
        advanceToSlow(now);
    }

    /**
     * Complete in-flight work and write entries out until occupancy
     * drops below @p target (checkpoints, quiesce). @return the
     * cycle the last write completes.
     */
    Cycle drainBelow(unsigned target, Cycle now);

    /**
     * The store path's full-buffer handling; call advanceTo(now)
     * first. A write in flight is waited for. With none in flight,
     * the write cache evicts through its register (evictVictim) and
     * the write buffer starts a retirement on the spot and waits for
     * it (waitForFreeEntry). Stalls are charged to @p stalls.
     * @return the cycle a slot is free (@p now if one already is).
     */
    Cycle
    makeRoom(Cycle now, StallStats &stalls)
    {
        if (store_.hasFree())
            return now;
        if (!retire_in_flight_ && config_.kind == BufferKind::WriteCache)
            return evictVictim(now, stalls);
        return waitForFreeEntry(now, stalls);
    }

    /** Begin retiring @p index at @p start (must match the port). */
    void startRetirement(std::size_t index, Cycle start,
                         L2Txn kind);

    /** Free the in-flight entry once its write has completed. */
    void completeRetirement();

    /** Write entry @p index to L2 beginning no earlier than
     *  @p earliest; frees the entry. @return completion cycle. */
    Cycle writeEntryNow(std::size_t index, Cycle earliest,
                        L2Txn kind);

    /** Re-arm the triggers after an occupancy change at @p at. */
    void
    noteOccupancyChange(Cycle at)
    {
        // Monomorphic fast path: retire-at-N with no age timeout is
        // a single OccupancyTrigger (final, so the calls inline).
        if (sole_occupancy_ != nullptr) {
            sole_occupancy_->noteOccupancy(store_.validCount(), at);
            trigger_idle_ = sole_occupancy_->idle();
            return;
        }
        noteOccupancyChangeSlow(at);
    }

    /** Entry the victim policy picks next (cross-checked). */
    int
    retirementVictim() const
    {
        if (list_head_victim_ && !scan_or_check_)
            return store_.listHead();
        return retirementVictimSlow();
    }

    /** Earliest cycle any trigger wants a retirement, or kNoCycle. */
    Cycle
    nextTrigger() const
    {
        if (store_.validCount() == 0)
            return kNoCycle;
        if (sole_occupancy_ != nullptr)
            return sole_occupancy_->nextTrigger(store_);
        return nextTriggerSlow();
    }

    /** Catch engine_now_ up to externally-serialised work (hazard
     *  flushes) and re-verify the indexes when cross-checking. */
    void
    finishExternal(Cycle t)
    {
        engine_now_ = std::max(engine_now_, t);
        if (cross_check_)
            verifyAll();
    }

    /** @name Timing state, exposed to organisations and tests. */
    /// @{
    bool inFlight() const { return retire_in_flight_; }
    Cycle retireDone() const { return retire_done_; }
    Cycle engineNow() const { return engine_now_; }
    Cycle backgroundDone() const { return background_done_; }
    /** Slot of the entry mid-retirement, or -1 (merge exclusion). */
    int
    excludeIndex() const
    {
        return retire_in_flight_ ? static_cast<int>(retiring_index_)
                                 : -1;
    }
    /// @}

    /** Publish retirement-size samples under @p id (nullptr
     *  detaches; cloneRebound copies start detached). */
    void
    setRetireWordsMetric(obs::MetricsRegistry *metrics,
                         obs::MetricId id)
    {
        metrics_ = metrics;
        m_retire_words_ = id;
    }

    /** Index + selector integrity (the cross-check entry point). */
    void verifyAll() const { store_.verifyIntegrity(); }

  private:
    /**
     * The buffer-full stall: wait for the in-flight retirement
     * (starting one on the spot if none is underway) and charge the
     * stall. @return the cycle the freed slot is available.
     */
    Cycle waitForFreeEntry(Cycle now, StallStats &stalls);

    /**
     * The write cache's eviction register: move the victim's data to
     * the one-deep outgoing register and reuse its slot immediately
     * while the write drains in the background; stall only when the
     * register is still busy. @return the cycle the slot is free.
     */
    Cycle evictVictim(Cycle now, StallStats &stalls);

    /** The one publish site for the retire-words handle: every
     *  write path samples through it. */
    void
    publishRetireWords(unsigned valid_words)
    {
        if (metrics_ != nullptr)
            metrics_->sample(m_retire_words_, valid_words);
    }

    /** Out-of-line replay loop behind advanceTo's inline fast path. */
    void advanceToSlow(Cycle now);

    /** Generic (multi-trigger / non-occupancy) policy paths behind
     *  the monomorphic inline fast paths above. */
    void noteOccupancyChangeSlow(Cycle at);
    int retirementVictimSlow() const;
    Cycle nextTriggerSlow() const;

    /** Recompute the cached all-triggers-idle flag. */
    void refreshIdle();

    /** Detect the monomorphic fast-path policies (sole occupancy
     *  trigger, list-head victim) after the ctors fill triggers_. */
    void cachePolicyShortcuts();

    EntryStore &store_;
    L2Port &port_;
    const L2WriteHook &hook_;
    const WriteBufferConfig &config_;
    /** config_.wordsPerEntry(), divided once: every L2 write passes
     *  it to the hook. */
    const unsigned words_per_entry_;
    StoreBufferStats &stats_;
    VictimSelector &selector_;
    std::vector<std::unique_ptr<RetirementTrigger>> triggers_;

    Cycle engine_now_ = 0;

    bool retire_in_flight_ = false;
    std::size_t retiring_index_ = 0;
    Cycle retire_done_ = 0;

    /** Completion cycle of the eviction-register write in flight
     *  (0 = idle; only the write cache uses the register). */
    Cycle background_done_ = 0;

    /** Cached AND of the triggers' idle() — advanceTo's fast path
     *  takes zero virtual calls. */
    bool trigger_idle_ = true;
    /** Whether the fast path may be taken while idle: with no
     *  triggers there is nothing to verify (the write cache's no-op
     *  advanceTo), otherwise cross-checking forces the slow path. */
    bool fast_when_idle_;
    bool cross_check_;
    /** naiveScan || crossCheck: victim picks must consult the scan. */
    bool scan_or_check_ = false;
    /** The one OccupancyTrigger when it is the whole composition. */
    OccupancyTrigger *sole_occupancy_ = nullptr;
    /** The victim is always the store's list head (fifo/lru-evict). */
    bool list_head_victim_ = false;

    obs::MetricsRegistry *metrics_ = nullptr;
    obs::MetricId m_retire_words_ = 0;
};

} // namespace wbsim

#endif // WBSIM_CORE_POLICY_RETIREMENT_ENGINE_HH
