/**
 * @file
 * The store buffer, assembled from the shared policy layer: an
 * EntryStore holds the slots and indexes, a RetirementEngine replays
 * background writes, and the pluggable trigger/victim/hazard
 * policies (core/policy/) say when, which, and how hazards resolve.
 * Stall cycles are attributed per Table 3.
 *
 * One class models both organisations; WriteBufferConfig::kind picks
 * the policies and the entry order:
 *  - BufferKind::WriteBuffer: the paper's coalescing FIFO write
 *    buffer (§2.2), in allocation order.
 *  - BufferKind::WriteCache: Jouppi's write cache (paper §1 related
 *    work; our ablation A5), a fully-associative cache of write
 *    blocks in LRU order. Under occupancy mode it never retires
 *    autonomously: a block is written to L2 only when it is evicted
 *    to make room (through the engine's one-deep eviction register)
 *    or when a load hazard forces a flush. Under fixed-rate mode (or
 *    with an age timeout) it retires in the background exactly like
 *    the write buffer. FlushPartial has no FIFO meaning here and
 *    behaves as FlushFull.
 *
 * Timing protocol: the buffer runs its retirement engine lazily.
 * Before every interaction at CPU time `now`, callers invoke
 * advanceTo(now), which replays any retirements that would have
 * started strictly before `now` (hence "read-bypassing": a load
 * arriving at `now` wins a tie for the L2 port against a retirement
 * that becomes eligible at `now`).
 */

#ifndef WBSIM_CORE_WRITE_BUFFER_HH
#define WBSIM_CORE_WRITE_BUFFER_HH

#include <memory>

#include "core/policy/entry_store.hh"
#include "core/policy/hazard_handler.hh"
#include "core/policy/retirement_engine.hh"
#include "core/store_buffer.hh"
#include "mem/l2_port.hh"

namespace wbsim
{

/** The store buffer: the FIFO write buffer or the write cache. */
class WriteBuffer final
{
  public:
    /**
     * @param config validated configuration (either kind).
     * @param port the shared L2 port.
     * @param hook functional L2 write callback.
     * @param line_bytes L1 line size, the granularity of load-hazard
     *        detection (an L1 fill must not bypass *any* stale word
     *        of its line, §2.2).
     */
    WriteBuffer(const WriteBufferConfig &config, L2Port &port,
                L2WriteHook hook, unsigned line_bytes = 32);

    /** Replay retirement activity up to (strictly before) @p now. */
    void advanceTo(Cycle now) { engine_.advanceTo(now); }

    /**
     * Present a store at @p now. Merges or allocates; on buffer-full
     * makes room for an entry and charges @p stalls.
     * @return cycle at which the store completes (== now unless the
     *         store stalled).
     */
    Cycle store(Addr addr, unsigned size, Cycle now,
                StallStats &stalls);

    /** Probe for a load; call advanceTo(now) first. */
    LoadProbe
    probeLoad(Addr addr, unsigned size) const
    {
        return store_.probeLoad(addr, size);
    }

    /**
     * Resolve a load hazard at @p now per the configured policy.
     * Counts the hazard; flush waits are charged by the caller using
     * (result.done - now).
     */
    HazardResult handleLoadHazard(const LoadProbe &probe, Addr addr,
                                  unsigned size, Cycle now);

    /** Currently occupied entries (a retiring entry counts). */
    unsigned
    occupancy() const
    {
        if (store_.naiveScan() || store_.crossCheck())
            return store_.occupancySlow();
        return store_.validCount();
    }

    /**
     * True when the buffer holds nothing, i.e. advanceTo would do no
     * retirement work. Lets callers skip the engine entirely on the
     * (common) empty-buffer fast path.
     */
    bool quiescent() const { return store_.validCount() == 0; }

    /**
     * Retire entries until occupancy < @p target (UltraSPARC-style
     * priority inversion, memory-barrier draining, end of run).
     * @return cycle when done.
     */
    Cycle
    drainBelow(unsigned target, Cycle now)
    {
        return engine_.drainBelow(target, now);
    }

    const WriteBufferConfig &config() const { return config_; }
    const StoreBufferStats &stats() const { return stats_; }

    /** Reset statistics; buffered contents are retained. */
    void resetStats() { stats_.reset(); }

    /**
     * Publish occupancy and retirement metrics into @p metrics
     * (nullptr detaches). Registration is idempotent by name, so
     * re-attaching after Simulator::restore() is safe. Clones made
     * by cloneRebound() start detached.
     */
    void attachMetrics(obs::MetricsRegistry *metrics);

    /**
     * Deep-copy this buffer — contents, in-flight retirement,
     * trigger state, statistics — rebound to @p port and @p hook
     * (the copy cannot share the source's references: a restored
     * simulator owns its own port and write callback). Used by
     * Simulator::snapshot()/restore() to capture warm state.
     */
    std::unique_ptr<WriteBuffer>
    cloneRebound(L2Port &port, L2WriteHook hook) const
    {
        return std::unique_ptr<WriteBuffer>(
            new WriteBuffer(*this, port, std::move(hook)));
    }

    /**
     * Bytes this buffer holds: the object, its entry lanes and its
     * occupancy histogram. The policy objects (a few words each) are
     * left out.
     */
    std::size_t
    bytes() const
    {
        return sizeof(*this) + store_.heapBytes()
            + (stats_.occupancy.buckets() + 1) * sizeof(Count);
    }

    /** True if a background retirement is in flight. */
    bool retirementUnderway() const { return engine_.inFlight(); }

    /** How far the retirement engine has been advanced (tests). */
    Cycle engineTime() const { return engine_.engineNow(); }

    /**
     * Panic unless every incremental index agrees with a from-scratch
     * recomputation over the entry array. Runs automatically after
     * each mutation when cross-checking is enabled; exposed so the
     * fuzzers can call it at arbitrary points.
     */
    void verifyIndexIntegrity() const { store_.verifyIntegrity(); }

  private:
    /** cloneRebound's copy: everything but the references. */
    WriteBuffer(const WriteBuffer &other, L2Port &port,
                L2WriteHook hook);

    WriteBufferConfig config_;
    L2Port &port_;
    L2WriteHook hook_;
    StoreBufferStats stats_;

    EntryStore store_;
    std::unique_ptr<VictimSelector> selector_;
    std::unique_ptr<HazardHandler> hazard_;
    RetirementEngine engine_;

    /** @name Optional always-on observability hooks (no-ops when
     *  detached; cloneRebound copies start detached). The occupancy
     *  gauge and retirement histogram publish from the shared layer;
     *  only the store-path histogram samples here. */
    /// @{
    obs::MetricsRegistry *metrics_ = nullptr;
    obs::MetricId m_occupancy_at_store_ = 0;
    /// @}
};

} // namespace wbsim

#endif // WBSIM_CORE_WRITE_BUFFER_HH
