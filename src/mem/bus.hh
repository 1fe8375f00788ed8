/**
 * @file
 * The arbitrated system bus between N cores and the shared L2.
 *
 * With one core the L2 port *is* the bus: every transaction starts
 * at max(earliest, freeAt) and no arbitration question ever arises.
 * With several cores the port becomes a shared resource, and which
 * request wins an overlap is a policy decision — the service
 * disciplines of the shared-bus multiprocessor literature. The
 * BusArbiter serialises every core's L2Port transactions through
 * one global busy interval under FCFS or fixed-priority service,
 * with per-core grant/wait accounting.
 *
 * Arbitration in a run-to-completion trace-driven simulator needs a
 * causality window: when core A requests the bus at cycle t, cores
 * whose local clocks are still behind the prospective grant instant
 * may yet present competing requests. The arbiter therefore runs a
 * conservative co-simulation: it advances lagging cores (through the
 * BusScheduler) until every free core's clock has passed the instant
 * the winning request would be granted, then commits exactly one
 * grant. Re-entrant requests from the advanced cores simply join the
 * pending set; recursion depth is bounded by the core count and
 * every pass either advances a core by one scheduling step or grants
 * a request, so the resolution terminates (DESIGN.md §14).
 */

#ifndef WBSIM_MEM_BUS_HH
#define WBSIM_MEM_BUS_HH

#include <limits>
#include <string_view>
#include <vector>

#include "mem/l2_port.hh"
#include "obs/timeline.hh"
#include "util/types.hh"

namespace wbsim
{

/** How overlapping bus requests are serviced. */
enum class BusDiscipline : std::uint8_t
{
    Fcfs,     //!< first-come-first-served on request time (seq ties)
    Priority, //!< fixed priority: core 0 highest, ties never wait
};

/** Printable name for a BusDiscipline. */
const char *busDisciplineName(BusDiscipline discipline);

/** Inverse of busDisciplineName(); fatal() on an unknown name. */
BusDiscipline parseBusDiscipline(std::string_view name);

/** Non-fatal parse; returns false and leaves @p out untouched on an
 *  unknown name (network-facing decode paths). */
bool tryParseBusDiscipline(std::string_view name, BusDiscipline &out);

/** Per-core bus service accounting. */
struct BusCoreStats
{
    /** Transactions granted to this core. */
    Count grants = 0;
    /** Cycles this core's transactions occupied the bus. */
    Count busyCycles = 0;
    /** Cycles between request and grant (arbitration queueing). */
    Count waitCycles = 0;
    /** Grants that had to wait at least one cycle. */
    Count contendedGrants = 0;

    bool operator==(const BusCoreStats &other) const = default;
};

/**
 * The co-simulation schedule the arbiter drives while a request is
 * pending: a view of every core's local clock plus a way to advance
 * one core. MultiCoreSystem implements it (final); unit tests script
 * rivals with it.
 *
 * The one virtual call the grant path keeps: one dispatch per
 * scheduling step, and a step runs at least one whole trace record,
 * so the indirection is amortised over the record work it triggers.
 * The per-core clock reads that dominate a causality pass are plain
 * loads from clocks().
 */
class BusScheduler
{
  public:
    /** The clock a core reports once its source is exhausted: it
     *  never lags any horizon, so it is never stepped again. */
    static constexpr Cycle kExhausted = std::numeric_limits<Cycle>::max();

    /**
     * Every core's local clock between scheduling steps, indexed by
     * core id (kExhausted once its source is dry). The arbiter keeps
     * the pointer and reads it directly, so the storage must stay in
     * place while the scheduler is attached. Only free cores' entries
     * are read: a core with an active request is mid-record.
     */
    virtual const Cycle *clocks() const = 0;

    /** Run one scheduling step of core @p core (at least one record,
     *  or discover exhaustion), then publish its new clock. */
    virtual void advance(unsigned core) = 0;

  protected:
    ~BusScheduler() = default;
};

/**
 * The shared-bus arbiter: one global busy interval, N requesters.
 *
 * Cores interact through their L2Port (L2Port::attachBus); the
 * MultiCoreSystem is the BusScheduler that lets the arbiter advance
 * lagging cores while a request is pending. A single-core
 * system may attach an arbiter too: with no other requesters every
 * grant degenerates to max(earliest, freeAt), bit-identical to the
 * unattached port (the N=1 equivalence tests pin this down).
 */
class BusArbiter
{
  public:
    BusArbiter(unsigned cores, BusDiscipline discipline);

    /** Attach (or replace) the co-simulation scheduler. Without one
     *  the arbiter still serialises, but cannot advance lagging
     *  cores — fine for single-core use and direct unit tests. */
    void setScheduler(BusScheduler *scheduler);

    unsigned cores() const
    {
        return static_cast<unsigned>(pending_.size());
    }
    BusDiscipline discipline() const { return discipline_; }

    /** @name Global busy-interval view (L2Port semantics). */
    /// @{
    Cycle freeAt() const { return free_at_; }
    bool
    busyAt(Cycle t) const
    {
        return t >= busy_from_ && t < free_at_;
    }
    bool writeUnderwayAt(Cycle t) const;
    L2Txn kindAt(Cycle t) const;
    /** Core holding the bus for the current/last transaction. */
    unsigned owner() const { return owner_; }
    /// @}

    /**
     * Request the bus for @p duration cycles, no earlier than
     * @p earliest, on behalf of @p core. Advances lagging cores
     * through the scheduler until the grant is causally safe, then
     * returns the granted start cycle (>= earliest).
     */
    Cycle
    acquire(unsigned core, L2Txn kind, Cycle earliest,
            Cycle duration);

    /** @name Accounting. */
    /// @{
    const BusCoreStats &coreStats(unsigned core) const;
    Count totalGrants() const;
    Count totalBusyCycles() const;
    /// @}

    /** Attribute bus occupancy to Channel::BusBusy on @p timeline
     *  (nullptr detaches). */
    void attachTimeline(obs::Timeline *timeline)
    {
        timeline_ = timeline;
    }

    /** Zero the per-core accounting (measurement boundaries). The
     *  busy interval is machine state and is left alone. */
    void resetStats();

    /** The arbiter's book between scheduling steps: the busy
     *  interval and its transaction, the arrival counter and the
     *  per-core accounting (the bus part of a MultiCoreSnapshot). */
    struct State
    {
        Cycle busyFrom = 0;
        Cycle freeAt = 0;
        L2Txn current = L2Txn::None;
        unsigned owner = 0;
        std::uint64_t seq = 0;
        std::vector<BusCoreStats> stats;
    };

    /** Capture the book. Only between scheduling steps: panics while
     *  a request is pending. */
    State state() const;

    /** Adopt @p state, captured from an arbiter with as many cores,
     *  with no request pending here. */
    void restore(const State &state);

  private:
    /** One core's outstanding request. */
    struct Pending
    {
        bool active = false;
        bool granted = false;
        L2Txn kind = L2Txn::None;
        Cycle earliest = 0;
        Cycle duration = 0;
        Cycle start = 0;           //!< valid once granted
        std::uint64_t seq = 0;     //!< arrival order (FCFS ties)
    };

    /**
     * Commit one grant: advance the global busy interval and book
     * the per-core accounting. The hot bookkeeping kernel of the
     * grant path — no allocation, no virtual dispatch.
     */
    Cycle bookGrant(unsigned core, L2Txn kind, Cycle earliest,
                    Cycle duration);

    /** Requester the discipline picks among pending, or -1. */
    int winner() const;

    /** Step free cores until none lags the prospective grant.
     *  @return the request that grant goes to (winner()), or -1
     *  once a nested pass has drained the pending set. */
    int advanceOthers();

    /* No mutex guards the request book below: one thread drives the
     * arbiter, the one running the multi-core scheduling loop.
     * runMultiCore() upholds this by construction (each cell owns its
     * arbiter; cores interleave on one thread), and the tsan job runs
     * the multi-core cells inside threaded grid workers. */
    std::vector<Pending> pending_;     //!< slot per core, no realloc
    std::vector<BusCoreStats> stats_;  //!< slot per core
    BusScheduler *scheduler_ = nullptr;
    /** scheduler_->clocks(), cached at attach. */
    const Cycle *clocks_ = nullptr;
    BusDiscipline discipline_;

    Cycle busy_from_ = 0;
    Cycle free_at_ = 0;
    L2Txn current_ = L2Txn::None;
    unsigned owner_ = 0;
    std::uint64_t seq_ = 0;

    obs::Timeline *timeline_ = nullptr;
};

} // namespace wbsim

#endif // WBSIM_MEM_BUS_HH
