#include "core/policy/retirement_engine.hh"

#include <algorithm>
#include <type_traits>

#include "util/logging.hh"

namespace wbsim
{

// The fast paths call these two targets directly once
// cachePolicyShortcuts() has found them; `final` is what lets those
// calls inline instead of dispatching. Any other policy pays its
// virtual call, which perf_gate's sim_policy_layer lane measures.
static_assert(std::is_final_v<OccupancyTrigger>);
static_assert(std::is_final_v<ListHeadSelector>);

RetirementEngine::RetirementEngine(
    EntryStore &store, L2Port &port, const L2WriteHook &hook,
    const WriteBufferConfig &config, StoreBufferStats &stats,
    VictimSelector &selector,
    std::vector<std::unique_ptr<RetirementTrigger>> triggers)
    : store_(store), port_(port), hook_(hook), config_(config),
      words_per_entry_(config.wordsPerEntry()), stats_(stats),
      selector_(selector), triggers_(std::move(triggers)),
      fast_when_idle_(triggers_.empty() || !store.crossCheck()),
      cross_check_(store.crossCheck())
{
    refreshIdle();
    cachePolicyShortcuts();
}

RetirementEngine::RetirementEngine(const RetirementEngine &other,
                                   EntryStore &store, L2Port &port,
                                   const L2WriteHook &hook,
                                   const WriteBufferConfig &config,
                                   StoreBufferStats &stats,
                                   VictimSelector &selector)
    : store_(store), port_(port), hook_(hook), config_(config),
      words_per_entry_(config.wordsPerEntry()), stats_(stats),
      selector_(selector),
      engine_now_(other.engine_now_),
      retire_in_flight_(other.retire_in_flight_),
      retiring_index_(other.retiring_index_),
      retire_done_(other.retire_done_),
      background_done_(other.background_done_),
      trigger_idle_(other.trigger_idle_),
      fast_when_idle_(other.fast_when_idle_),
      cross_check_(other.cross_check_)
{
    triggers_.reserve(other.triggers_.size());
    for (const auto &trigger : other.triggers_)
        triggers_.push_back(trigger->clone());
    cachePolicyShortcuts();
}

void
RetirementEngine::cachePolicyShortcuts()
{
    scan_or_check_ = store_.naiveScan() || cross_check_;
    sole_occupancy_ = triggers_.size() == 1
        ? dynamic_cast<OccupancyTrigger *>(triggers_.front().get())
        : nullptr;
    list_head_victim_ =
        dynamic_cast<ListHeadSelector *>(&selector_) != nullptr;
}

void
RetirementEngine::refreshIdle()
{
    bool idle = true;
    for (const auto &trigger : triggers_)
        idle = idle && trigger->idle();
    trigger_idle_ = idle;
}

void
RetirementEngine::noteOccupancyChangeSlow(Cycle at)
{
    unsigned valid = store_.validCount();
    for (const auto &trigger : triggers_)
        trigger->noteOccupancy(valid, at);
    refreshIdle();
}

Cycle
RetirementEngine::nextTriggerSlow() const
{
    Cycle trigger = kNoCycle;
    for (const auto &t : triggers_)
        trigger = std::min(trigger, t->nextTrigger(store_));
    return trigger;
}

int
RetirementEngine::retirementVictimSlow() const
{
    if (store_.naiveScan() || cross_check_) {
        int naive = selector_.naivePick(store_);
        if (cross_check_)
            wbsim_assert(selector_.pick(store_) == naive,
                         "retirement victim diverged from the scan");
        if (store_.naiveScan())
            return naive;
    }
    return selector_.pick(store_);
}

void
RetirementEngine::startRetirement(std::size_t index, Cycle start,
                                  L2Txn kind)
{
    wbsim_assert(store_.validAt(index), "retiring an invalid entry");
    wbsim_assert(!retire_in_flight_, "overlapping retirements");
    unsigned valid_words = store_.validWords(index);
    Cycle duration = hook_(store_.base(index), valid_words,
                           words_per_entry_, start);
    wbsim_assert(duration > 0, "L2 write hook returned zero duration");
    Cycle actual = port_.begin(kind, start, duration);
    // Standalone, start was computed against the port's own freeAt so
    // the grant is exact; under bus arbitration another core may have
    // slipped in and pushed the grant later.
    if (!port_.busArbitrated())
        wbsim_assert(actual == start,
                     "retirement start raced the L2 port");
    retire_in_flight_ = true;
    retiring_index_ = index;
    retire_done_ = actual + duration;
    stats_.wordsWritten += valid_words;
    ++stats_.entriesWritten;
    ++stats_.retirements;
    publishRetireWords(valid_words);
    if (sole_occupancy_ == nullptr) // start is a no-op for occupancy
        for (const auto &trigger : triggers_)
            trigger->noteRetirementStart(actual);
}

void
RetirementEngine::completeRetirement()
{
    wbsim_assert(retire_in_flight_, "completing a retirement that "
                 "never started");
    store_.release(retiring_index_);
    retire_in_flight_ = false;
    noteOccupancyChange(retire_done_);
}

Cycle
RetirementEngine::writeEntryNow(std::size_t index, Cycle earliest,
                                L2Txn kind)
{
    wbsim_assert(store_.validAt(index), "flushing an invalid entry");
    unsigned valid_words = store_.validWords(index);
    Cycle start = std::max(earliest, port_.freeAt());
    Cycle duration = hook_(store_.base(index), valid_words,
                           words_per_entry_, start);
    Cycle actual = port_.begin(kind, start, duration);
    store_.release(index);
    stats_.wordsWritten += valid_words;
    ++stats_.entriesWritten;
    if (kind == L2Txn::WriteFlush)
        ++stats_.flushes;
    else
        ++stats_.retirements;
    publishRetireWords(valid_words);
    noteOccupancyChange(actual + duration);
    return actual + duration;
}

void
RetirementEngine::advanceToSlow(Cycle now)
{
    for (;;) {
        if (retire_in_flight_) {
            if (retire_done_ <= now) {
                completeRetirement();
                continue;
            }
            break;
        }
        Cycle trigger = nextTrigger();
        if (trigger == kNoCycle)
            break;
        Cycle start = std::max(trigger, port_.freeAt());
        if (start >= now)
            break; // ties go to the reader: read-bypassing
        int victim = retirementVictim();
        wbsim_assert(victim >= 0, "trigger with an empty buffer");
        startRetirement(static_cast<std::size_t>(victim), start,
                        L2Txn::WriteRetire);
    }
    if (sole_occupancy_ == nullptr) { // replay-end no-op for occupancy
        unsigned valid = store_.validCount();
        for (const auto &trigger : triggers_)
            trigger->noteReplayEnd(valid, now);
    }
    engine_now_ = std::max(engine_now_, now);
    if (cross_check_)
        verifyAll();
}

Cycle
RetirementEngine::waitForFreeEntry(Cycle now, StallStats &stalls)
{
    // Buffer-full stall: wait for the next entry to free.
    ++stalls.bufferFullEvents;
    if (!retire_in_flight_) {
        Cycle trigger = nextTrigger();
        wbsim_assert(trigger != kNoCycle,
                     "full buffer with no retirement trigger");
        int victim = retirementVictim();
        Cycle start = std::max({trigger, port_.freeAt(), now});
        startRetirement(static_cast<std::size_t>(victim), start,
                        L2Txn::WriteRetire);
    }
    Cycle t = retire_done_;
    completeRetirement();
    stalls.bufferFullCycles += t - now;
    stalls.bufferFullMaxEpisode =
        std::max<Count>(stalls.bufferFullMaxEpisode, t - now);
    engine_now_ = std::max(engine_now_, t);
    wbsim_assert(store_.hasFree(), "no free entry after a retirement");
    return t;
}

Cycle
RetirementEngine::evictVictim(Cycle now, StallStats &stalls)
{
    // The eviction register holds one outgoing block; if it is still
    // draining we stall.
    Cycle t = now;
    if (background_done_ > t) {
        ++stalls.bufferFullEvents;
        stalls.bufferFullCycles += background_done_ - t;
        stalls.bufferFullMaxEpisode =
            std::max<Count>(stalls.bufferFullMaxEpisode,
                            background_done_ - t);
        t = background_done_;
    }
    int victim = retirementVictim();
    wbsim_assert(victim >= 0, "full write cache with no LRU victim");
    auto index = static_cast<std::size_t>(victim);
    // The victim's data moves to the eviction register and the slot
    // is reused immediately; the write itself drains in the
    // background.
    unsigned valid_words = store_.validWords(index);
    Cycle start = std::max(t, port_.freeAt());
    Cycle duration = hook_(store_.base(index), valid_words,
                           words_per_entry_, start);
    Cycle actual = port_.begin(L2Txn::WriteRetire, start, duration);
    background_done_ = actual + duration;
    stats_.wordsWritten += valid_words;
    ++stats_.entriesWritten;
    ++stats_.retirements;
    store_.release(index);
    return t;
}

Cycle
RetirementEngine::drainBelow(unsigned target, Cycle now)
{
    advanceTo(now);
    Cycle t = std::max(now, background_done_);
    while (store_.validCount() >= target) {
        if (retire_in_flight_) {
            t = std::max(t, retire_done_);
            completeRetirement();
            continue;
        }
        int victim = retirementVictim();
        if (victim < 0)
            break;
        t = writeEntryNow(static_cast<std::size_t>(victim), t,
                          L2Txn::WriteRetire);
    }
    engine_now_ = std::max(engine_now_, t);
    if (cross_check_)
        verifyAll();
    return t;
}

} // namespace wbsim
