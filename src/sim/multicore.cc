#include "sim/multicore.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "util/logging.hh"

namespace wbsim
{

namespace
{

std::vector<MachineConfig>
replicate(const MachineConfig &config)
{
    config.validate();
    return std::vector<MachineConfig>(std::max(1u, config.cores),
                                      config);
}

} // namespace

SimResults
MultiCoreResults::aggregate() const
{
    wbsim_assert(!perCore.empty(), "aggregating an empty system");
    SimResults r = perCore.front();
    SimResults::forEachField([&](ResultGroup, const char *, const char *,
                                 Combine combine, auto access) {
        if constexpr (std::is_member_object_pointer_v<decltype(access)>) {
            auto &total = resultField(r, access);
            using T = std::decay_t<decltype(total)>;
            if constexpr (std::is_arithmetic_v<T>) {
                for (std::size_t i = 1; i < perCore.size(); ++i) {
                    const T &core = resultField(perCore[i], access);
                    if (combine == Combine::Max)
                        total = std::max(total, core);
                    else if (combine != Combine::First)
                        total += core;
                }
                if (combine == Combine::Mean)
                    total /= static_cast<T>(perCore.size());
            } else {
                wbsim_assert(combine == Combine::First,
                             "only numbers combine over cores");
            }
        }
    });
    return r;
}

MultiCoreSystem::MultiCoreSystem(const MachineConfig &config,
                                 Schedule schedule)
    : MultiCoreSystem(replicate(config), schedule)
{
}

MultiCoreSystem::MultiCoreSystem(
    const std::vector<MachineConfig> &configs, Schedule schedule)
    : clocks_(configs.size(), 0),
      bus_(static_cast<unsigned>(
               std::max<std::size_t>(1, configs.size())),
           configs.empty() ? BusDiscipline::Fcfs
                           : configs.front().busDiscipline),
      schedule_(schedule)
{
    wbsim_assert(!configs.empty(),
                 "a multi-core system needs at least one core");
    cores_.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        CoreState core;
        core.sim = std::make_unique<Simulator>(configs[i]);
        core.sim->attachBus(&bus_, static_cast<unsigned>(i));
        core.runs.resize(Simulator::kFeedBatch);
        cores_.push_back(std::move(core));
    }
    bus_.setScheduler(this);
}

void
MultiCoreSystem::attachObs(unsigned coreId, const obs::ObsSink &sink)
{
    wbsim_assert(coreId < cores_.size(),
                 "obs attach to an unknown core");
    cores_[coreId].sink = sink;
    // Already past the measurement boundary (warmup == 0 or a
    // mid-run attach): take effect immediately, like the single-core
    // harness attaching after resetStats().
    if (cores_[coreId].measuring && sink.attached())
        cores_[coreId].sim->attachObs(sink);
}

void
MultiCoreSystem::beginMeasurement(unsigned i)
{
    CoreState &core = cores_[i];
    core.recordsAtReset = core.sim->instructions();
    core.sim->resetStats();
    core.busAtReset = bus_.coreStats(i);
    core.measuring = true;
    ++measuring_;
    if (core.sink.attached())
        core.sim->attachObs(core.sink);
}

bool
MultiCoreSystem::refill(unsigned i)
{
    CoreState &core = cores_[i];
    core.have = core.source->nextRuns(core.runs.data(),
                                      Simulator::kFeedBatch);
    core.pos = 0;
    if (core.have == 0) {
        clocks_[i] = kExhausted;
        return false;
    }
    return true;
}

void
MultiCoreSystem::runPrefix(CoreState &core)
{
    Count limit =
        core.measuring ? std::numeric_limits<Count>::max() : warmup_;
    core.pos += core.sim->runPrivatePrefix(core.runs.data() + core.pos,
                                           core.have - core.pos, limit);
}

void
MultiCoreSystem::crossBoundary(unsigned i)
{
    // Each core crosses its warmup boundary at its own pace: under
    // contention the cores' clocks diverge, so a global boundary
    // would mix warmup and measured cycles on the faster cores.
    CoreState &core = cores_[i];
    if (!core.measuring && core.sim->instructions() >= warmup_)
        beginMeasurement(i);
}

void
MultiCoreSystem::advance(unsigned i)
{
    CoreState &core = cores_[i];
    if (core.pos == core.have && !refill(i))
        return;
    Simulator &sim = *core.sim;
    // Nothing in a private prefix is visible to another core, so
    // where a batched step ends inside one cannot move any
    // bus-visible record: each still runs at the clock, and in the
    // global order, the per-record schedule gives it (DESIGN.md §14).
    // A step that starts at a potentially visible record runs it
    // first, alone, then the private prefix that follows it.
    bool batched = schedule_ == Schedule::Batched;
    Count before = sim.instructions();
    if (batched)
        runPrefix(core);
    if (sim.instructions() == before) {
        if (sim.stepFront(core.runs[core.pos]))
            ++core.pos;
        if (batched) {
            crossBoundary(i);
            runPrefix(core);
        }
    }
    clocks_[i] = sim.now();
    crossBoundary(i);
}

void
MultiCoreSystem::attachSources(const std::vector<TraceSource *> &sources)
{
    wbsim_assert(sources.size() == cores_.size(),
                 "one trace source per core required");
    // A shared event log records the cross-core event order, which
    // only the per-record schedule produces: private-prefix steps
    // reorder private events (L1-hit loads) across cores. So an
    // attached log keeps every core on that schedule.
    for (const CoreState &core : cores_)
        if (core.sink.eventLog != nullptr
            || core.sim->eventLog() != nullptr)
            schedule_ = Schedule::PerRecord;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        wbsim_assert(sources[i] != nullptr, "null trace source");
        cores_[i].source = sources[i];
        cores_[i].workload = sources[i]->name();
    }
}

void
MultiCoreSystem::start(const std::vector<TraceSource *> &sources,
                       Count warmup)
{
    warmup_ = warmup;
    attachSources(sources);
    for (unsigned i = 0; i < cores_.size(); ++i) {
        clocks_[i] = cores_[i].sim->now();
        if (warmup == 0)
            beginMeasurement(i);
    }
}

void
MultiCoreSystem::schedule(bool untilWarm)
{
    // Min-clock schedule: always advance the core whose local clock
    // is furthest behind (ties to the lowest id), so no core runs
    // ahead of bus traffic that could contend with it. The bus
    // arbiter recursively advances lagging cores inside a step
    // whenever a grant needs the causality window closed. Exhausted
    // cores read kExhausted and are never picked.
    for (;;) {
        if (untilWarm && measuring_ == cores_.size())
            return;
        unsigned best = 0;
        for (unsigned i = 1; i < clocks_.size(); ++i)
            if (clocks_[i] < clocks_[best])
                best = i;
        if (clocks_[best] == kExhausted)
            return;
        advance(best);
    }
}

MultiCoreResults
MultiCoreSystem::run(const std::vector<TraceSource *> &sources,
                     Count warmup)
{
    start(sources, warmup);
    schedule(/*untilWarm=*/false);
    return finish();
}

MultiCoreResults
MultiCoreSystem::finish()
{
    // Drain in core id order; drains serialise through the bus like
    // any other write traffic.
    for (CoreState &core : cores_)
        core.sim->drain();

#ifndef NDEBUG
    // The port mirror against the arbiter's book: over the whole run
    // each core's L2Port began exactly the transactions the arbiter
    // granted it, each for the cycles it was granted.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const L2Port &port = cores_[i].sim->port();
        Count transactions = 0;
        Count busy = 0;
        for (L2Txn kind :
             {L2Txn::Read, L2Txn::WriteRetire, L2Txn::WriteFlush}) {
            transactions += port.transactions(kind);
            busy += port.busyCycles(kind);
        }
        const BusCoreStats &book =
            bus_.coreStats(static_cast<unsigned>(i));
        wbsim_assert(transactions == book.grants,
                     "core ", i, " port began ", transactions,
                     " transactions, the bus granted ", book.grants);
        wbsim_assert(busy == book.busyCycles, "core ", i,
                     " port busy ", busy, " cycles, the bus granted ",
                     book.busyCycles);
    }
#endif

    MultiCoreResults out;
    out.discipline = bus_.discipline();
    out.perCore.reserve(cores_.size());
    out.bus.reserve(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        CoreState &core = cores_[i];
        wbsim_assert(core.measuring,
                     "a core never reached its warmup quota; "
                     "warmup must be shorter than the trace");
        out.perCore.push_back(core.sim->results(core.workload));
        const BusCoreStats &now =
            bus_.coreStats(static_cast<unsigned>(i));
        const BusCoreStats &base = core.busAtReset;
        BusCoreStats measured;
        measured.grants = now.grants - base.grants;
        measured.busyCycles = now.busyCycles - base.busyCycles;
        measured.waitCycles = now.waitCycles - base.waitCycles;
        measured.contendedGrants =
            now.contendedGrants - base.contendedGrants;
        out.bus.push_back(measured);
    }
    return out;
}

std::size_t
MultiCoreSnapshot::bytes() const
{
    std::size_t total = sizeof(*this)
        + cores.capacity() * sizeof(Core)
        + bus.stats.capacity() * sizeof(BusCoreStats)
        + clocks.capacity() * sizeof(Cycle);
    // Each SimSnapshot object sits inside its Core; bytes() adds its
    // heap parts.
    for (const Core &core : cores)
        total += core.sim.bytes() - sizeof(SimSnapshot);
    return total;
}

void
MultiCoreSystem::assertUnobserved() const
{
    for (const CoreState &core : cores_)
        wbsim_assert(!core.sink.attached()
                         && core.sim->eventLog() == nullptr,
                     "a system checkpoint with an obs sink or event "
                     "log attached: cores that crossed early publish "
                     "before the capture");
}

MultiCoreSnapshot
MultiCoreSystem::warmUp(const std::vector<TraceSource *> &sources,
                        Count warmup)
{
    assertUnobserved();
    start(sources, warmup);
    schedule(/*untilWarm=*/true);
    wbsim_assert(measuring_ == cores_.size(),
                 "a core never reached its warmup quota; "
                 "warmup must be shorter than the trace");

    // Between top-level steps every acquire() has returned, so no
    // request is pending (BusArbiter::state checks) and each core's
    // state is its Simulator's plus the scheduler's view of it.
    MultiCoreSnapshot snap;
    snap.cores.reserve(cores_.size());
    for (const CoreState &core : cores_) {
        snap.cores.push_back({core.sim->snapshot(),
                              core.recordsAtReset
                                  + core.sim->instructions(),
                              core.busAtReset});
        // The port copy names this system's arbiter, which the
        // checkpoint outlives; restore() attaches the target's own.
        snap.cores.back().sim.port->attachBus(nullptr, 0);
    }
    snap.bus = bus_.state();
    snap.clocks = clocks_;
    return snap;
}

MultiCoreResults
MultiCoreSystem::resume(const MultiCoreSnapshot &snap,
                        const std::vector<TraceSource *> &sources)
{
    wbsim_assert(snap.cores.size() == cores_.size(),
                 "system checkpoint resumed into a different core "
                 "count");
    assertUnobserved();
    // Each core keeps its own bus attachment through restore().
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const MultiCoreSnapshot::Core &from = snap.cores[i];
        CoreState &core = cores_[i];
        core.sim->restore(from.sim);
        core.busAtReset = from.busAtReset;
        core.measuring = true;
    }
    bus_.restore(snap.bus);
    // In place: the arbiter reads the clocks through its own pointer.
    std::copy(snap.clocks.begin(), snap.clocks.end(), clocks_.begin());
    attachSources(sources);
    schedule(/*untilWarm=*/false);
    return finish();
}

} // namespace wbsim
