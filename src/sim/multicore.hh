/**
 * @file
 * MultiCoreSystem: N per-core Simulators on one clock base, every
 * core's L2 traffic serialised through one BusArbiter.
 *
 * The single-core Simulator is untouched as a component: each core
 * keeps its own L1s, store buffer, retirement engine, and stall
 * accounting. What the system adds is the shared resource and the
 * schedule — a min-clock interleaving across cores, with the arbiter
 * recursively advancing lagging cores whenever a bus request needs a
 * causally safe grant (DESIGN.md §14). A scheduling step runs the
 * core's next potentially bus-visible record (store, barrier, load
 * missing L1, instruction fetch missing the I-cache) at the instant
 * the core is picked, then the whole bus-private prefix (NonMem
 * runs, L1-hit loads, I-fetch hits, bubble draws) up to the next
 * one, which keeps the bus schedule of the one-record-per-step
 * reference bit for bit.
 *
 * A 1-core system with the bus attached reproduces the legacy
 * single-core run bit for bit (no competing requester means every
 * grant is max(earliest, freeAt), exactly the standalone port); the
 * multicore equivalence tests pin this across all policy axes.
 */

#ifndef WBSIM_SIM_MULTICORE_HH
#define WBSIM_SIM_MULTICORE_HH

#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "sim/machine_config.hh"
#include "sim/results.hh"
#include "sim/simulator.hh"
#include "trace/source.hh"

namespace wbsim
{

/** Everything a multi-core run produces. */
struct MultiCoreResults
{
    /** Per-core results (measured region, core id order). */
    std::vector<SimResults> perCore;

    /** Per-core bus service accounting over the measured region. */
    std::vector<BusCoreStats> bus;

    BusDiscipline discipline = BusDiscipline::Fcfs;

    /**
     * One SimResults summarising the system, each field by its
     * SimResults::forEachField() rule: counters summed across cores,
     * cycles the max per-core cycle count (the system is done when
     * its slowest core is), the max episodes the longest, mean
     * occupancy averaged, the labels core 0's. This is
     * what runOne() returns for a multi-core cell, so grids, serve
     * responses, and reports handle topology cells with no schema
     * change.
     */
    SimResults aggregate() const;
};

/**
 * A bit-exact capture of a whole MultiCoreSystem between two top-level
 * scheduling steps (a system checkpoint, DESIGN.md §14): every core's
 * SimSnapshot, the arbiter's book, the scheduler's clocks and each
 * core's measurement state. MultiCoreSystem::warmUp() takes one at the
 * first boundary where every core has crossed its warmup;
 * MultiCoreSystem::resume() continues any number of systems of the
 * same machine from it.
 */
struct MultiCoreSnapshot
{
    /** One core's share of the system. Every core measures at the
     *  capture (warmUp stops only once all have crossed), so all a
     *  core's measurement state is its bus stats at its boundary. */
    struct Core
    {
        SimSnapshot sim;
        /** Records the core executed, warmup included: where its
         *  source resumes. */
        Count records = 0;
        /** Its bus stats at its measurement boundary. */
        BusCoreStats busAtReset;
    };

    std::vector<Core> cores;
    BusArbiter::State bus;
    /** Each core's scheduler clock (BusScheduler::kExhausted once its
     *  source ran dry). */
    std::vector<Cycle> clocks;

    /** Bytes this snapshot holds: its own object, each core's
     *  SimSnapshot::bytes() and the vectors' elements. What the grid
     *  cache charges a system checkpoint. */
    std::size_t bytes() const;
};

/** N cores, one arbitrated bus; drive with per-core trace sources. */
class MultiCoreSystem final : private BusScheduler
{
  public:
    /** How a scheduling step feeds a core. */
    enum class Schedule : std::uint8_t
    {
        /** A step runs the core's next record if it may reach the
         *  bus, then the bus-private prefix after it (the production
         *  path). */
        Batched,
        /** A step runs one record: the reference (tests, debug
         *  shadow), and the schedule of any run with an event log. */
        PerRecord,
    };

    /** Homogeneous system: @p config replicated config.cores times. */
    explicit MultiCoreSystem(const MachineConfig &config,
                             Schedule schedule = Schedule::Batched);

    /** Heterogeneous system: one config per core (the serve path's
     *  mixed-cell scenario). Core count is configs.size(); the bus
     *  discipline comes from configs[0]. */
    explicit MultiCoreSystem(const std::vector<MachineConfig> &configs,
                             Schedule schedule = Schedule::Batched);

    /** The arbiter keeps a pointer to this system (its scheduler). */
    MultiCoreSystem(const MultiCoreSystem &) = delete;
    MultiCoreSystem &operator=(const MultiCoreSystem &) = delete;

    unsigned
    cores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** @name Introspection for tests. */
    /// @{
    Simulator &core(unsigned i) { return *cores_[i].sim; }
    BusArbiter &bus() { return bus_; }
    /// @}

    /**
     * Attach observability sinks to core @p i. Sinks attach at the
     * core's measurement boundary (after its warmup reset), so they
     * cover the measured region only — per-core metric shards merge
     * afterwards via MetricsRegistry::merge.
     */
    void attachObs(unsigned coreId, const obs::ObsSink &sink);

    /** Attribute bus occupancy to Channel::BusBusy on @p timeline. */
    void
    attachBusTimeline(obs::Timeline *timeline)
    {
        bus_.attachTimeline(timeline);
    }

    /**
     * Run every core's source to exhaustion under one schedule.
     * @p sources must hold one source per core (caller-owned).
     * Each core simulates @p warmup instructions, then resets its
     * statistics at its own boundary (cores cross asynchronously
     * under contention) and measures the rest. Buffers are drained
     * at the end, in core id order.
     *
     * Single-shot: the system's machine state is consumed by the
     * run. Build a fresh system for another run.
     */
    MultiCoreResults run(const std::vector<TraceSource *> &sources,
                         Count warmup = 0);

    /**
     * Run as run() does, but stop at the first top-level scheduling
     * boundary where every core has crossed its @p warmup, and
     * capture the system there. Cores that crossed early have
     * already measured records, and one may have exhausted its
     * source. Requires no attached obs sink or event log (an early
     * core would have published before the capture). Single-shot.
     */
    MultiCoreSnapshot warmUp(const std::vector<TraceSource *> &sources,
                             Count warmup);

    /**
     * Adopt @p snap (taken from a system of the same machines) and
     * finish the run from there: the results equal those of run()
     * on the whole traces, bit for bit. sources[i] must be
     * positioned at snap.cores[i].records. Requires no attached obs
     * sink or event log. Single-shot.
     */
    MultiCoreResults resume(const MultiCoreSnapshot &snap,
                            const std::vector<TraceSource *> &sources);

  private:
    struct CoreState
    {
        std::unique_ptr<Simulator> sim;
        TraceSource *source = nullptr;
        /** Run-item feed buffer, sized at construction. */
        std::vector<TraceRun> runs;
        std::size_t pos = 0;
        std::size_t have = 0;
        bool measuring = false;
        /** Records executed before the measurement boundary. */
        Count recordsAtReset = 0;
        BusCoreStats busAtReset;
        obs::ObsSink sink;
        std::string workload;
    };

    /** @name BusScheduler: the arbiter's view of the cores. */
    /// @{
    const Cycle *clocks() const override { return clocks_.data(); }

    /** One scheduling step of core @p i: when batched, its next
     *  record if that may reach the bus, then the bus-private prefix
     *  after it (up to its warmup boundary); else its next record. */
    void advance(unsigned i) override;
    /// @}

    /** Pull the next feed buffer into core @p i; false (and the
     *  core's clock set to kExhausted) once its source is dry. */
    bool refill(unsigned i);

    /** Run @p core's buffered private prefix, stopping at its warmup
     *  boundary while it is still warming up. */
    void runPrefix(CoreState &core);

    /** Begin core @p i's measurement once it reaches its warmup
     *  quota. */
    void crossBoundary(unsigned i);

    /** Reset core @p i's statistics and attach its sinks: the
     *  per-core measurement boundary. */
    void beginMeasurement(unsigned i);

    /** Bind each core to its source, and keep every core on the
     *  per-record schedule when an event log is attached. */
    void attachSources(const std::vector<TraceSource *> &sources);

    /** run()'s and warmUp()'s set-up: bind the sources, publish
     *  every clock and, with no warmup, begin every core's
     *  measurement. */
    void start(const std::vector<TraceSource *> &sources, Count warmup);

    /** Panic if any core has an obs sink or event log attached: a
     *  resumed run would miss what the cores that crossed early
     *  published before the capture. */
    void assertUnobserved() const;

    /** The min-clock scheduling loop: until every source is dry, or
     *  with @p untilWarm until every core measures. */
    void schedule(bool untilWarm);

    /** Drain every core and collect the measured results. */
    MultiCoreResults finish();

    std::vector<CoreState> cores_;
    /** Each core's clock as of its last scheduling step. */
    std::vector<Cycle> clocks_;
    BusArbiter bus_;
    Schedule schedule_;
    Count warmup_ = 0;
    /** Cores past their measurement boundary. */
    unsigned measuring_ = 0;
};

} // namespace wbsim

#endif // WBSIM_SIM_MULTICORE_HH
