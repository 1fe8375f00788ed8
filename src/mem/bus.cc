#include "mem/bus.hh"

#include <algorithm>

#include "util/enum_names.hh"
#include "util/logging.hh"

namespace wbsim
{

namespace
{

/** The one name table: busDisciplineName(), both
 *  parsers, and the CLI help derive from it and can never disagree. */
constexpr EnumName<BusDiscipline> kDisciplineNames[] = {
    {BusDiscipline::Fcfs, "fcfs"},
    {BusDiscipline::Priority, "priority"},
};
static_assert(namesEvery(kDisciplineNames, BusDiscipline::Priority));

} // namespace

const char *
busDisciplineName(BusDiscipline discipline)
{
    return nameOf(kDisciplineNames, discipline);
}

bool
tryParseBusDiscipline(std::string_view name, BusDiscipline &out)
{
    return tryParseName(kDisciplineNames, name, out);
}

BusDiscipline
parseBusDiscipline(std::string_view name)
{
    return parseName(kDisciplineNames, name, "bus discipline");
}

BusArbiter::BusArbiter(unsigned cores, BusDiscipline discipline)
    : pending_(cores), stats_(cores), discipline_(discipline)
{
    wbsim_assert(cores >= 1, "a bus needs at least one requester");
}

void
BusArbiter::setScheduler(BusScheduler *scheduler)
{
    scheduler_ = scheduler;
    clocks_ = scheduler != nullptr ? scheduler->clocks() : nullptr;
}

bool
BusArbiter::writeUnderwayAt(Cycle t) const
{
    return busyAt(t)
        && (current_ == L2Txn::WriteRetire
            || current_ == L2Txn::WriteFlush);
}

L2Txn
BusArbiter::kindAt(Cycle t) const
{
    return busyAt(t) ? current_ : L2Txn::None;
}

Cycle
BusArbiter::bookGrant(unsigned core, L2Txn kind, Cycle earliest,
                      Cycle duration)
{
    Cycle start = std::max(earliest, free_at_);
    busy_from_ = start;
    free_at_ = start + duration;
    current_ = kind;
    owner_ = core;
    BusCoreStats &s = stats_[core];
    ++s.grants;
    s.busyCycles += duration;
    Cycle wait = start - earliest;
    s.waitCycles += wait;
    if (wait != 0)
        ++s.contendedGrants;
    if (timeline_ != nullptr)
        timeline_->add(obs::Channel::BusBusy, start, duration);
    return start;
}

int
BusArbiter::winner() const
{
    int best = -1;
    for (unsigned i = 0; i < pending_.size(); ++i) {
        const Pending &p = pending_[i];
        if (!p.active || p.granted)
            continue;
        if (best < 0) {
            // Ascending scan: under fixed priority the first active
            // requester is the lowest (highest-priority) core id.
            best = static_cast<int>(i);
            if (discipline_ == BusDiscipline::Priority)
                return best;
            continue;
        }
        const Pending &b = pending_[static_cast<unsigned>(best)];
        if (p.earliest < b.earliest
            || (p.earliest == b.earliest && p.seq < b.seq))
            best = static_cast<int>(i);
    }
    return best;
}

int
BusArbiter::advanceOthers()
{
    for (;;) {
        // Every free core must reach the instant the winning request
        // would be granted before the grant is causally safe: a
        // lagging core may still present an earlier (FCFS) or
        // higher-priority request. Grants during the catch-up grow
        // free_at_, so the horizon is recomputed each pass. A nested
        // pass may have drained the pending set entirely (including
        // this frame's own request) — nothing left to protect.
        int w = winner();
        if (w < 0 || scheduler_ == nullptr)
            return w; // no scheduler: nothing can lag (unit tests)
        Cycle horizon =
            std::max(pending_[static_cast<unsigned>(w)].earliest,
                     free_at_);
        int lagging = -1;
        Cycle lag_clock = 0;
        // Exhausted cores report BusScheduler::kExhausted and so
        // never lag.
        for (unsigned i = 0; i < pending_.size(); ++i) {
            Cycle t = clocks_[i];
            if (t >= horizon || pending_[i].active)
                continue;
            if (lagging < 0 || t < lag_clock) {
                lagging = static_cast<int>(i);
                lag_clock = t;
            }
        }
        if (lagging < 0)
            return w;
        scheduler_->advance(static_cast<unsigned>(lagging));
    }
}

Cycle
BusArbiter::acquire(unsigned core, L2Txn kind, Cycle earliest,
                    Cycle duration)
{
    wbsim_assert(core < pending_.size(), "bus request from a core id "
                 "beyond the configured topology");
    Pending &me = pending_[core];
    wbsim_assert(!me.active, "re-entrant bus request from one core");
    me.active = true;
    me.granted = false;
    me.kind = kind;
    me.earliest = earliest;
    me.duration = duration;
    me.start = 0;
    me.seq = seq_++;
    // A nested resolution (from a core advanced below) may grant
    // this request while its own frame is suspended; check between
    // passes rather than assuming the grant serves self.
    while (!me.granted) {
        int w = advanceOthers();
        if (me.granted)
            break;
        wbsim_assert(w >= 0, "grant pass with no pending request");
        Pending &p = pending_[static_cast<unsigned>(w)];
        p.start = bookGrant(static_cast<unsigned>(w), p.kind,
                            p.earliest, p.duration);
        p.granted = true;
    }
    me.active = false;
    return me.start;
}

const BusCoreStats &
BusArbiter::coreStats(unsigned core) const
{
    wbsim_assert(core < stats_.size(), "bus stats for an unknown core");
    return stats_[core];
}

Count
BusArbiter::totalGrants() const
{
    Count total = 0;
    for (const BusCoreStats &s : stats_)
        total += s.grants;
    return total;
}

Count
BusArbiter::totalBusyCycles() const
{
    Count total = 0;
    for (const BusCoreStats &s : stats_)
        total += s.busyCycles;
    return total;
}

void
BusArbiter::resetStats()
{
    std::fill(stats_.begin(), stats_.end(), BusCoreStats{});
}

BusArbiter::State
BusArbiter::state() const
{
    // acquire() clears its request before it returns, so between
    // scheduling steps nothing is pending: the book is the whole of
    // the arbiter's state.
    for (const Pending &p : pending_)
        wbsim_assert(!p.active, "bus state captured mid-request");
    return {busy_from_, free_at_, current_, owner_, seq_, stats_};
}

void
BusArbiter::restore(const State &state)
{
    wbsim_assert(state.stats.size() == stats_.size(),
                 "bus state restored into a different core count");
    for (const Pending &p : pending_)
        wbsim_assert(!p.active, "bus state restored mid-request");
    busy_from_ = state.busyFrom;
    free_at_ = state.freeAt;
    current_ = state.current;
    owner_ = state.owner;
    seq_ = state.seq;
    stats_ = state.stats;
}

} // namespace wbsim
