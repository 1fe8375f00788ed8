/**
 * @file
 * The cycle-level simulator of the paper's machine model (§2.1):
 * single-issue, blocking caches, write-through L1, coalescing write
 * buffer, and an L2 that is either perfect or real.
 *
 * The simulator is the only place timing decisions are made; caches
 * and buffers are functional models plus busy-interval resources.
 */

#ifndef WBSIM_SIM_SIMULATOR_HH
#define WBSIM_SIM_SIMULATOR_HH

#include <memory>
#include <span>
#include <type_traits>

#include "core/write_buffer.hh"
#include "mem/l1_dcache.hh"
#include "mem/l1_icache.hh"
#include "mem/l2_cache.hh"
#include "mem/l2_port.hh"
#include "mem/main_memory.hh"
#include "obs/hooks.hh"
#include "obs/timeline.hh"
#include "sim/event_log.hh"
#include "sim/machine_config.hh"
#include "sim/results.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace wbsim
{

/**
 * A bit-exact capture of one Simulator's complete mutable state:
 * tag stores, write-buffer contents and in-flight transactions, the
 * busy intervals of the L2 port and memory channel, clocks, RNG
 * streams, and every statistic. Produced by Simulator::snapshot();
 * Simulator::restore() replays it into any simulator built from the
 * same MachineConfig, any number of times (the grid runner forks
 * many measured runs off one warm image).
 *
 * Each cache is kept as an image of its valid lines (Cache::Image),
 * so a checkpoint of a large, mostly cold L2 costs what its warm
 * lines do, not what the whole array does.
 *
 * Move-only. The embedded buffer clone is bound to the snapshot's
 * own port copy and is never advanced; it exists purely as a state
 * carrier for the next cloneRebound().
 */
struct SimSnapshot
{
    std::uint64_t configFingerprint = 0;
    L1DataCache::Image l1d;
    L1ICache::Image l1i;
    L2Cache::Image l2;
    MainMemory memory;
    std::unique_ptr<L2Port> port;
    std::unique_ptr<WriteBuffer> buffer;
    Count bufferPendingAtReset = 0;
    Cycle cycle = 0;
    Cycle cycleBase = 0;
    Count instructions = 0;
    Count loads = 0;
    Count stores = 0;
    unsigned issueSlot = 0;
    Rng bubbleRng{0};
    Addr lastPc = 0;
    StallStats stalls;
    Count ifetchMisses = 0;
    Count l2IFetchStallCycles = 0;
    Count barriers = 0;
    Count barrierStallCycles = 0;
    Count storeFetches = 0;
    Count storeFetchCycles = 0;

    /** Bytes this snapshot holds: its fields, the cache images'
     *  lines, the port copy and the buffer clone (WriteBuffer::
     *  bytes). What the grid cache charges a checkpoint. */
    std::size_t bytes() const;
};

/** One simulated machine; run one trace through it. */
class Simulator
{
  public:
    /** Run items a feed loop pulls from a TraceSource per refill. */
    static constexpr std::size_t kFeedBatch = 256;

    explicit Simulator(const MachineConfig &config);

    /**
     * Consume @p source to exhaustion (or until instructions()
     * reaches @p max_instructions) and return the aggregated
     * results. The write buffer is drained at the end so all
     * traffic is accounted. Records arrive as run items
     * (TraceSource::nextRuns, budgeted so the last item is cut
     * exactly at the limit): a NonMem run costs O(1), O(lines) with
     * a real I-cache, O(records) with bubbles. Results are
     * bit-identical to one step() per record (DESIGN.md §12).
     */
    SimResults run(TraceSource &source, Count max_instructions = 0);

    /**
     * Execute exactly @p count records (fewer only if the source
     * ends), fed like run() but without draining or producing
     * results — the warmup half of a measured run.
     * @return records consumed.
     */
    Count consume(TraceSource &source, Count count)
    {
        Simulator *self = this;
        return consume(source, {&self, 1}, count);
    }

    /**
     * The one feed loop: execute the next @p count records of
     * @p source (fewer only if it ends) on every simulator of
     * @p sims in lockstep. Each batch of run items is pulled once
     * and executed by each simulator in turn, so every simulator
     * sees exactly the records it would see alone (runCells' one
     * pass over a trace for many machines). The simulators must
     * start at the same instruction count.
     * @return records consumed.
     */
    static Count consume(TraceSource &source,
                         std::span<Simulator *const> sims, Count count);

    /**
     * Execute a single record: the per-record reference every feed
     * is diffed against (runReference, the multi-core per-record
     * schedule) and the way a multi-core step runs its one
     * bus-visible record (stepFront).
     */
    void step(const TraceRecord &record);

    /**
     * Run the bus-private prefix of @p items[0, count), which no
     * other core can observe (DESIGN.md §14): stop before the first
     * record that may reach L2 — a store, a barrier, or a load or
     * fetch the const L1D or L1I probe says misses, even inside a
     * NonMem run — or once instructions() reaches @p limit; a cut
     * item is shortened in place. Requires no attached event log.
     * @return items fully consumed.
     */
    std::size_t runPrivatePrefix(TraceRun *items,
                                 std::size_t count,
                                 Count limit);

    /** step() the front record of @p item: its run's next NonMem
     *  record (at last_pc_ + 4), else its own record.
     *  @return true once the item is consumed. */
    bool
    stepFront(TraceRun &item)
    {
        if (item.nonMemBefore == 0) {
            step(item.rec);
            return true;
        }
        --item.nonMemBefore;
        step(TraceRecord::nonMem(last_pc_ + 4));
        return false;
    }

    /**
     * Capture all mutable state (see SimSnapshot). Typically taken
     * right after warmup + resetStats(), so restored runs begin at
     * the measurement boundary.
     */
    SimSnapshot snapshot() const;

    /**
     * Adopt the state in @p snap, which must come from a simulator
     * with an identical MachineConfig (checked by fingerprint). The
     * attached event log, if any, is kept.
     */
    void restore(const SimSnapshot &snap);

    /** @name Introspection for tests. */
    /// @{
    Cycle now() const { return cycle_; }
    const StallStats &stalls() const { return stalls_; }
    WriteBuffer &buffer() { return *buffer_; }
    L1DataCache &l1d() { return l1d_; }
    L2Cache &l2() { return l2_; }
    L2Port &port() { return port_; }
    MainMemory &memory() { return memory_; }
    Count instructions() const { return instructions_; }
    /// @}

    /** Drain the store buffer and advance time to completion. */
    void drain();

    /**
     * Attach a debug event log (nullptr detaches). The simulator
     * records loads, stores, stalls, hazards and write transfers;
     * the caller owns the log.
     */
    void attachEventLog(EventLog *log) { event_log_ = log; }

    /** The attached event log (nullptr when detached). */
    EventLog *eventLog() const { return event_log_; }

    /**
     * Route all of this core's L2 traffic through @p bus as
     * requester @p coreId (nullptr detaches; the default standalone
     * port is the paper's single-core machine, bit for bit).
     * Survives restore(). The MultiCoreSystem attaches every core
     * before feeding records.
     */
    void
    attachBus(BusArbiter *bus, unsigned coreId)
    {
        port_.attachBus(bus, coreId);
    }

    /**
     * Attach an observability sink: any combination of a metrics
     * registry, a cycle-attribution timeline, and an event log (all
     * optional, caller-owned). Null members detach the corresponding
     * channel; a default-constructed sink detaches everything and
     * every publish site reverts to a no-op. Survives restore():
     * the restored port and buffer are re-attached automatically.
     */
    void attachObs(const obs::ObsSink &sink);

    /**
     * Zero all statistics while keeping cache and buffer contents:
     * call after a warmup period so steady-state behaviour is
     * measured without compulsory-miss pollution.
     */
    void resetStats();

    /** Snapshot results so far (drain() first for exact totals). */
    SimResults results(const std::string &workload) const;

  private:
    MachineConfig config_;

    L1DataCache l1d_;
    L1ICache l1i_;
    L2Cache l2_;
    L2Port port_;
    MainMemory memory_;
    std::unique_ptr<WriteBuffer> buffer_;

    /** @name l2Write() constants for a full-width entry (every
     *  production retirement), fixed by the config. */
    /// @{
    unsigned entry_words_ = 0;
    Cycle entry_write_cycles_ = 0;
    bool entry_covers_line_ = false;
    /// @}

    Cycle cycle_ = 0;
    Cycle cycle_base_ = 0;
    Count instructions_ = 0;
    Count loads_ = 0;
    Count stores_ = 0;
    unsigned issue_slot_ = 0;
    Rng bubble_rng_{0xb0bb1e};
    /** PC of the last record executed, maintained only with a real
     *  I-cache: a run item's NonMem PCs continue from it. */
    Addr last_pc_ = 0;

    StallStats stalls_;
    Count ifetch_misses_ = 0;
    Count l2_ifetch_stall_cycles_ = 0;
    Count barriers_ = 0;
    Count barrier_stall_cycles_ = 0;
    Count store_fetches_ = 0;
    Count store_fetch_cycles_ = 0;
    /** Resident entries not yet counted as written at the last
     *  resetStats() (the allocation-conservation check's start). */
    Count buffer_pending_at_reset_ = 0;
    EventLog *event_log_ = nullptr;

    /** @name Observability sinks (null = detached = no-op). */
    /// @{
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::Timeline *timeline_ = nullptr;
    obs::MetricId m_stall_full_ = 0;   //!< buffer-full stall durations
    obs::MetricId m_stall_read_ = 0;   //!< read-access wait durations
    obs::MetricId m_stall_hazard_ = 0; //!< hazard-resolution latencies
    obs::MetricId m_stall_barrier_ = 0; //!< barrier-drain durations
    /// @}

    /** The L2 write callback handed to store-buffer instances. */
    L2WriteHook makeL2WriteHook();

    /** Resident entries whose L2 write is not yet counted: an entry
     *  is counted when its retirement starts, so the one in flight
     *  is excluded. */
    Count
    bufferPending() const
    {
        return buffer_->occupancy()
            - (buffer_->retirementUnderway() ? 1 : 0);
    }

    /** Record an event if a log is attached. */
    void note(SimEventKind kind, Addr addr = 0, Count a = 0,
              Count b = 0)
    {
        if (event_log_)
            event_log_->record(cycle_, kind, addr, a, b);
    }

    /** Charge the issue cost of one instruction. */
    void advanceIssue();

    /** Call @p body(RealICache, Bubbles) with this config's flags as
     *  std::bool_constant: the no-bubble loops make no RNG draw. */
    template <typename Body>
    decltype(auto)
    withFeedFlags(Body &&body)
    {
        auto bubbles = [&](auto real_icache) {
            if (config_.bubbleProbability > 0.0)
                return body(real_icache, std::true_type{});
            return body(real_icache, std::false_type{});
        };
        if (config_.perfectICache)
            return bubbles(std::false_type{});
        return bubbles(std::true_type{});
    }

    /** Execute the records @p items[0, count) cover, exactly as
     *  one step() per record would (runItems for this machine's
     *  feed flags). */
    void feed(const TraceRun *items, std::size_t count);

    /**
     * Execute @p count run items exactly as step() would execute the
     * records they cover. @p RealICache charges each run's fetches
     * line by line (fetchRun); otherwise a run is issue arithmetic
     * only. L1-hit loads are handled in place.
     */
    template <bool RealICache, bool Bubbles>
    void runItems(const TraceRun *items, std::size_t count);

    /** runPrivatePrefix() for one machine shape. It names no miss
     *  path, so the hot root's closure stays allocation-free. */
    template <bool RealICache, bool Bubbles>
    std::size_t privatePrefix(TraceRun *items, std::size_t count,
                              Count limit);

    /**
     * Issue and fetch up to @p count NonMem instructions whose PCs
     * continue by 4 from last_pc_: @p fetch_first issues and fetches
     * the first PC in each I-cache line (false stops before it),
     * L1ICache::fetchRepeat() the rest of the line, which hit (no
     * fill happens inside the line) and read no clock.
     * @return instructions run.
     */
    template <bool Bubbles, typename FetchFirst>
    Count fetchRun(Count count, FetchFirst fetch_first);

    /** Issue @p count instructions as @p count advanceIssue() calls
     *  would: a bubble draw each with @p Bubbles, else O(1). */
    template <bool Bubbles>
    void
    issueRun(Count count)
    {
        instructions_ += count;
        if constexpr (Bubbles) {
            for (Count i = 0; i < count; ++i)
                advanceIssue();
        } else if (config_.issueWidth == 1) {
            cycle_ += count; // the slot never leaves 0
        } else {
            Count slots = issue_slot_ + count;
            cycle_ += slots / config_.issueWidth;
            issue_slot_ =
                static_cast<unsigned>(slots % config_.issueWidth);
        }
    }

    /** §2.2 ordering instruction: drain the buffer, stall the CPU. */
    void doBarrier();

    /** Functional-and-timing L2 write callback for the buffer. */
    Cycle l2Write(Addr base, unsigned valid_words, unsigned total_words,
                  Cycle start);

    /** Handle an instruction fetch (real-I-cache extension). */
    void
    fetch(Addr pc)
    {
        if (!l1i_.fetch(pc))
            fetchMiss(pc);
    }

    /** fetch() past the I-cache lookup, which missed. */
    void fetchMiss(Addr pc);

    /** Duration of an L2 write of a @p total_words entry. */
    Cycle writeCycles(unsigned total_words) const;

    void doLoad(Addr addr, unsigned size);
    /** doLoad() past the L1 lookup, which missed. */
    void doLoadMiss(Addr addr, unsigned size);
    void doStore(Addr addr, unsigned size);

    /** Perform a demand L2 read at @p earliest, charging port waits
     *  to the given stall counters (including the longest-episode
     *  high-water mark) and attributing any wait to @p channel on
     *  the timeline. @return data-ready cycle. */
    Cycle l2DemandRead(Addr addr, Cycle earliest, Count &stall_cycles,
                       Count &stall_events, Count &max_episode,
                       obs::Channel channel
                       = obs::Channel::ReadAccessStall);

    /** The one publish site for the read-access-stall handle: port
     *  waits and write-priority drains both report through it,
     *  attributing the wait to @p channel. */
    void
    publishReadStall(Cycle at, Cycle wait, obs::Channel channel)
    {
        if (metrics_ != nullptr)
            metrics_->sample(m_stall_read_, wait);
        if (timeline_ != nullptr)
            timeline_->add(channel, at, wait);
    }
};

} // namespace wbsim

#endif // WBSIM_SIM_SIMULATOR_HH
