/**
 * @file
 * The single port between the CPU/write-buffer side and L2.
 *
 * All L2 traffic — load-miss reads, write-buffer retirements, and
 * hazard-induced flushes — serialises through this port. The paper's
 * read-bypassing rule ("loads beat *pending* retirements, but an
 * *underway* write is never preempted") is enforced by the callers:
 * the write buffer only begins transactions strictly before the
 * cycle at which a competing load arrives.
 */

#ifndef WBSIM_MEM_L2_PORT_HH
#define WBSIM_MEM_L2_PORT_HH

#include "obs/metrics.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace wbsim
{

class BusArbiter;

/** What the L2 port is doing. */
enum class L2Txn : std::uint8_t
{
    None,        //!< idle
    Read,        //!< L1 load-miss (or I-fetch) read
    WriteRetire, //!< autonomous write-buffer retirement
    WriteFlush,  //!< load-hazard-forced flush
};

/** Printable name for an L2Txn. */
const char *l2TxnName(L2Txn txn);

/**
 * Busy-interval model of the L2 access port.
 *
 * Standalone (the single-core machine) the port owns its busy
 * interval outright. Attached to a BusArbiter (attachBus) the global
 * bus interval is authoritative: the query methods answer for the
 * whole bus and begin() routes through arbitration, while the local
 * interval and counters become this core's private mirror of its own
 * traffic (per-core utilisation accounting).
 */
class L2Port
{
  public:
    /** First cycle at which the port is idle. */
    Cycle
    freeAt() const
    {
        if (bus_ != nullptr)
            return busFreeAt();
        return free_at_;
    }

    /** True if a transaction is in flight at cycle @p t. */
    bool
    busyAt(Cycle t) const
    {
        if (bus_ != nullptr)
            return busBusyAt(t);
        return t >= busy_from_ && t < free_at_;
    }

    /** True if a *write* is in flight at cycle @p t. */
    bool writeUnderwayAt(Cycle t) const;

    /** Kind of the transaction in flight (None when idle). */
    L2Txn kindAt(Cycle t) const;

    /**
     * Begin a transaction no earlier than @p earliest, lasting
     * @p duration cycles.
     * @return the actual start cycle (>= earliest).
     */
    Cycle begin(L2Txn kind, Cycle earliest, Cycle duration);

    /** @name Utilisation statistics. */
    /// @{
    Count busyCycles(L2Txn kind) const;
    Count transactions(L2Txn kind) const;
    /// @}

    /**
     * Publish per-transaction counters into @p metrics (nullptr
     * detaches). Copies of this port (snapshots) carry the pointer
     * but never begin transactions; Simulator::restore() re-attaches
     * explicitly.
     */
    void attachMetrics(obs::MetricsRegistry *metrics);

    /**
     * Route this port through @p bus as requester @p coreId (nullptr
     * detaches and restores standalone behaviour). Copies of the
     * port (snapshots) carry the pointer but never begin
     * transactions; Simulator::restore() re-attaches explicitly.
     */
    void
    attachBus(BusArbiter *bus, unsigned coreId)
    {
        bus_ = bus;
        bus_core_ = coreId;
    }

    /** The attached arbiter (nullptr when standalone). */
    BusArbiter *bus() const { return bus_; }

    /** Requester id on the attached bus. */
    unsigned busCoreId() const { return bus_core_; }

    /** True when transactions go through bus arbitration — grants
     *  may then start later than requested, so callers must use the
     *  actual start begin() returns rather than assume equality. */
    bool busArbitrated() const { return bus_ != nullptr; }

  private:
    /** Out-of-line global-view queries (keep the standalone inline
     *  fast path free of the BusArbiter definition). */
    Cycle busFreeAt() const;
    bool busBusyAt(Cycle t) const;

    Cycle busy_from_ = 0;
    Cycle free_at_ = 0;
    L2Txn current_ = L2Txn::None;
    Count busy_cycles_[4] = {};
    Count transactions_[4] = {};

    BusArbiter *bus_ = nullptr;
    unsigned bus_core_ = 0;

    obs::MetricsRegistry *metrics_ = nullptr;
    obs::MetricId txn_metric_[4] = {};
    obs::MetricId busy_metric_ = 0;
};

} // namespace wbsim

#endif // WBSIM_MEM_L2_PORT_HH
