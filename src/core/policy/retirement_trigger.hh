/**
 * @file
 * Retirement triggers: *when* the shared retirement engine wants to
 * start writing an entry back to L2 (paper §2.2 / Table 2). The
 * engine composes any number of triggers and acts on the earliest;
 * the factory (policy_factory.hh) picks the composition for a
 * configuration — occupancy plus an optional age timeout, or a
 * fixed-rate clock on its own.
 */

#ifndef WBSIM_CORE_POLICY_RETIREMENT_TRIGGER_HH
#define WBSIM_CORE_POLICY_RETIREMENT_TRIGGER_HH

#include <algorithm>
#include <memory>

#include "core/policy/entry_store.hh"

namespace wbsim
{

/**
 * When the retirement engine should start a background write. The
 * engine's fast paths monomorphise the common compositions (sole
 * final OccupancyTrigger), and the replay loop's residual dispatch
 * through this interface is the documented trigger escape hatch
 * (DESIGN.md §10).
 */
class RetirementTrigger
{
  public:
    virtual ~RetirementTrigger() = default;

    /** Registry name (the retirement-mode/ageTimeout vocabulary). */
    virtual const char *name() const = 0;

    /**
     * Earliest cycle this trigger wants a retirement, or kNoCycle.
     * Only consulted while the store holds at least one entry.
     */
    virtual Cycle nextTrigger(const EntryStore &store) const = 0;

    /** The occupancy changed to @p valid entries at cycle @p at. */
    virtual void noteOccupancy(unsigned valid, Cycle at) = 0;

    /** A retirement started at @p start. */
    virtual void noteRetirementStart(Cycle start) = 0;

    /** The replay loop caught up to @p now with @p valid entries. */
    virtual void noteReplayEnd(unsigned valid, Cycle now) = 0;

    /**
     * True while the trigger provably cannot fire before the next
     * occupancy change. The engine's inline advanceTo fast path
     * skips the replay loop only when every trigger is idle, so this
     * must be conservative: never idle beats wrongly idle.
     */
    virtual bool idle() const = 0;

    /** Deep copy for snapshot cloneRebound. */
    virtual std::unique_ptr<RetirementTrigger> clone() const = 0;
};

/**
 * Retire-at-N: arm as soon as occupancy reaches the high-water mark,
 * timestamped with the cycle the condition became true so replay can
 * start the write in the past.
 */
class OccupancyTrigger final : public RetirementTrigger
{
  public:
    explicit OccupancyTrigger(unsigned high_water_mark)
        : high_water_mark_(high_water_mark)
    {}

    const char *name() const override { return "occupancy"; }

    Cycle
    nextTrigger(const EntryStore &store) const override
    {
        if (store.validCount() < high_water_mark_)
            return kNoCycle;
        wbsim_assert(occupancy_since_ != kNoCycle,
                     "occupancy condition holds but no timestamp");
        return occupancy_since_;
    }

    void
    noteOccupancy(unsigned valid, Cycle at) override
    {
        if (valid >= high_water_mark_) {
            if (occupancy_since_ == kNoCycle)
                occupancy_since_ = at;
        } else {
            occupancy_since_ = kNoCycle;
        }
    }

    void noteRetirementStart(Cycle) override {}
    void noteReplayEnd(unsigned, Cycle) override {}
    bool idle() const override { return occupancy_since_ == kNoCycle; }

    std::unique_ptr<RetirementTrigger>
    clone() const override
    {
        return std::make_unique<OccupancyTrigger>(*this);
    }

  private:
    unsigned high_water_mark_;
    /** Cycle at which the occupancy condition last became true, or
     *  kNoCycle while occupancy < highWaterMark. */
    Cycle occupancy_since_ = kNoCycle;
};

/** Fixed-rate: attempt a retirement every period cycles. */
class FixedRateTrigger final : public RetirementTrigger
{
  public:
    explicit FixedRateTrigger(Cycle period)
        : period_(period), next_attempt_(period)
    {}

    const char *name() const override { return "fixed-rate"; }

    Cycle
    nextTrigger(const EntryStore &) const override
    {
        return next_attempt_;
    }

    void noteOccupancy(unsigned, Cycle) override {}

    void
    noteRetirementStart(Cycle start) override
    {
        next_attempt_ = start + period_;
    }

    void
    noteReplayEnd(unsigned valid, Cycle now) override
    {
        // Fixed-rate attempts tick past an empty buffer without
        // effect. This must run after the replay loop, not before
        // it: when the last entry retires inside the loop the
        // attempt clock would be left in the past and the next
        // stores would see a causally-impossible burst of stale
        // retirement attempts.
        if (valid == 0) {
            while (next_attempt_ < now)
                next_attempt_ += period_;
        }
    }

    /** Never idle: the attempt clock must stay caught up. */
    bool idle() const override { return false; }

    std::unique_ptr<RetirementTrigger>
    clone() const override
    {
        return std::make_unique<FixedRateTrigger>(*this);
    }

  private:
    Cycle period_;
    /** Next scheduled attempt for fixed-rate retirement. */
    Cycle next_attempt_;
};

/**
 * Paced (token-bucket) retire-at-N: arm like an occupancy trigger,
 * but rate-limit the drain. The bucket holds up to @p burst tokens
 * and regenerates one every @p period cycles; each background
 * retirement spends one. A store burst can still drain back-to-back
 * up to the bucket depth, but sustained drain traffic is capped at
 * one write per period, leaving L2-port gaps for demand reads —
 * trading a little buffer-full headroom for a much shorter
 * read-access stall tail (DESIGN.md §11).
 */
class PacedTrigger final : public RetirementTrigger
{
  public:
    PacedTrigger(Cycle period, unsigned burst,
                 unsigned high_water_mark)
        : period_(period), burst_(burst),
          high_water_mark_(high_water_mark), tokens_(burst),
          next_refill_(period)
    {}

    const char *name() const override { return "paced"; }

    Cycle
    nextTrigger(const EntryStore &store) const override
    {
        if (store.validCount() < high_water_mark_)
            return kNoCycle;
        wbsim_assert(occupancy_since_ != kNoCycle,
                     "occupancy condition holds but no timestamp");
        Cycle token_at = tokens_ > 0 ? token_since_ : next_refill_;
        return std::max(occupancy_since_, token_at);
    }

    void
    noteOccupancy(unsigned valid, Cycle at) override
    {
        if (valid >= high_water_mark_) {
            if (occupancy_since_ == kNoCycle)
                occupancy_since_ = at;
        } else {
            occupancy_since_ = kNoCycle;
        }
    }

    void
    noteRetirementStart(Cycle start) override
    {
        refillTo(start);
        wbsim_assert(tokens_ > 0,
                     "paced retirement started without a token");
        // While the bucket sits full the refill clock idles; the
        // token spent now regenerates one period from now.
        if (tokens_ == burst_)
            next_refill_ = start + period_;
        --tokens_;
        if (tokens_ > 0)
            token_since_ = start;
    }

    void
    noteReplayEnd(unsigned, Cycle now) override
    {
        // Keep the refill clock caught up so a long quiet stretch
        // cannot leave a causally-impossible backlog of stale token
        // arrivals (bounded: the loop stops once the bucket is full).
        refillTo(now);
    }

    /** Never idle: tokens regenerate with the passage of time. */
    bool idle() const override { return false; }

    std::unique_ptr<RetirementTrigger>
    clone() const override
    {
        return std::make_unique<PacedTrigger>(*this);
    }

  private:
    void
    refillTo(Cycle to)
    {
        while (tokens_ < burst_ && next_refill_ <= to) {
            ++tokens_;
            if (tokens_ == 1)
                token_since_ = next_refill_;
            next_refill_ += period_;
        }
    }

    Cycle period_;
    unsigned burst_;
    unsigned high_water_mark_;
    /** Tokens currently available (starts full). */
    unsigned tokens_;
    /** Cycle the next token accrues (meaningful while not full). */
    Cycle next_refill_;
    /** Cycle the bucket last went from empty to non-empty. */
    Cycle token_since_ = 0;
    /** Cycle at which the occupancy condition last became true, or
     *  kNoCycle while occupancy < highWaterMark. */
    Cycle occupancy_since_ = kNoCycle;
};

/** Age timeout: retire once the oldest entry has sat for too long. */
class AgeTimeoutTrigger final : public RetirementTrigger
{
  public:
    explicit AgeTimeoutTrigger(Cycle timeout) : timeout_(timeout) {}

    const char *name() const override { return "age-timeout"; }

    Cycle
    nextTrigger(const EntryStore &store) const override
    {
        int oldest = store.oldestBySeq();
        wbsim_assert(oldest >= 0, "non-empty buffer with no oldest entry");
        return store.allocCycle(static_cast<std::size_t>(oldest))
            + timeout_;
    }

    void noteOccupancy(unsigned, Cycle) override {}
    void noteRetirementStart(Cycle) override {}
    void noteReplayEnd(unsigned, Cycle) override {}

    /** Never idle: any resident entry is ageing toward the timeout. */
    bool idle() const override { return false; }

    std::unique_ptr<RetirementTrigger>
    clone() const override
    {
        return std::make_unique<AgeTimeoutTrigger>(*this);
    }

  private:
    Cycle timeout_;
};

} // namespace wbsim

#endif // WBSIM_CORE_POLICY_RETIREMENT_TRIGGER_HH
