#include "sim/simulator.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace wbsim
{

Simulator::Simulator(const MachineConfig &config)
    : config_(config),
      l1d_(config.l1d),
      l1i_(config.perfectICache ? L1ICache() : L1ICache(config.l1i)),
      l2_(config.perfectL2 ? L2Cache() : L2Cache(config.l2)),
      memory_(config.memLatency)
{
    config_.validate();
    entry_words_ = config_.writeBuffer.wordsPerEntry();
    entry_write_cycles_ = writeCycles(entry_words_);
    entry_covers_line_ =
        config_.writeBuffer.entryBytes >= config_.l1d.lineBytes;
    buffer_ = std::make_unique<WriteBuffer>(
        config_.writeBuffer, port_, makeL2WriteHook(),
        static_cast<unsigned>(config_.l1d.lineBytes));
}

void
Simulator::attachObs(const obs::ObsSink &sink)
{
    event_log_ = sink.eventLog;
    timeline_ = sink.timeline;
    metrics_ = sink.metrics;
    if (metrics_ != nullptr) {
        // Stall durations cluster near the L2/memory latencies;
        // 4-cycle buckets over 0..255 resolve them and the overflow
        // bucket absorbs long barrier-style drains.
        m_stall_full_ = metrics_->histogram("sim.stall.buffer_full",
                                            64, 4);
        m_stall_read_ = metrics_->histogram("sim.stall.read_access",
                                            64, 4);
        m_stall_hazard_ = metrics_->histogram("sim.stall.hazard", 64, 4);
        m_stall_barrier_ = metrics_->histogram("sim.stall.barrier",
                                               64, 4);
    }
    buffer_->attachMetrics(metrics_);
    port_.attachMetrics(metrics_);
}

L2WriteHook
Simulator::makeL2WriteHook()
{
    return [this](Addr base, unsigned valid_words, unsigned total_words,
                  Cycle start) {
        return l2Write(base, valid_words, total_words, start);
    };
}

std::size_t
SimSnapshot::bytes() const
{
    auto lines = [](const std::optional<Cache::Image> &tags) {
        return tags ? tags->heapBytes() : 0;
    };
    return sizeof(*this) + l1d.tags.heapBytes() + lines(l1i.tags)
        + lines(l2.tags) + sizeof(*port) + buffer->bytes();
}

SimSnapshot
Simulator::snapshot() const
{
    SimSnapshot snap{config_.stateFingerprint(),
                     l1d_.image(),
                     l1i_.image(),
                     l2_.image(),
                     memory_,
                     std::make_unique<L2Port>(port_),
                     nullptr,
                     buffer_pending_at_reset_,
                     cycle_,
                     cycle_base_,
                     instructions_,
                     loads_,
                     stores_,
                     issue_slot_,
                     bubble_rng_,
                     last_pc_,
                     stalls_,
                     ifetch_misses_,
                     l2_ifetch_stall_cycles_,
                     barriers_,
                     barrier_stall_cycles_,
                     store_fetches_,
                     store_fetch_cycles_};
    // The stored clone is a state carrier only; it must never run,
    // so its write hook traps.
    snap.buffer = buffer_->cloneRebound(
        *snap.port, [](Addr, unsigned, unsigned, Cycle) -> Cycle {
            wbsim_panic("a snapshot's buffer clone performed an L2 "
                        "write; snapshots must not be advanced");
        });
    return snap;
}

void
Simulator::restore(const SimSnapshot &snap)
{
    wbsim_assert(snap.configFingerprint == config_.stateFingerprint(),
                 "snapshot restored into a different machine config");
    l1d_.restore(snap.l1d);
    l1i_.restore(snap.l1i);
    l2_.restore(snap.l2);
    memory_ = snap.memory;
    // The snapshot's port copy carries its creator's bus attachment;
    // this simulator's own attachment (usually none) wins.
    BusArbiter *bus = port_.bus();
    unsigned bus_core = port_.busCoreId();
    port_ = *snap.port;
    port_.attachBus(bus, bus_core);
    buffer_ = snap.buffer->cloneRebound(port_, makeL2WriteHook());
    buffer_pending_at_reset_ = snap.bufferPendingAtReset;
    cycle_ = snap.cycle;
    cycle_base_ = snap.cycleBase;
    instructions_ = snap.instructions;
    loads_ = snap.loads;
    stores_ = snap.stores;
    issue_slot_ = snap.issueSlot;
    bubble_rng_ = snap.bubbleRng;
    last_pc_ = snap.lastPc;
    stalls_ = snap.stalls;
    ifetch_misses_ = snap.ifetchMisses;
    l2_ifetch_stall_cycles_ = snap.l2IFetchStallCycles;
    barriers_ = snap.barriers;
    barrier_stall_cycles_ = snap.barrierStallCycles;
    store_fetches_ = snap.storeFetches;
    store_fetch_cycles_ = snap.storeFetchCycles;
    // The copied port carries the snapshot creator's metrics pointer
    // and the buffer clone starts detached; re-attach both to this
    // simulator's sink (idempotent; nullptr detaches).
    port_.attachMetrics(metrics_);
    buffer_->attachMetrics(metrics_);
}

Cycle
Simulator::writeCycles(unsigned total_words) const
{
    // Transfer time scales with the entry's width over the datapath
    // (identical to the fixed line transfer for line-wide entries).
    std::uint64_t entry_bytes =
        std::uint64_t{total_words} * config_.writeBuffer.wordBytes;
    return config_.l2Latency
        + (divCeil(std::max<std::uint64_t>(entry_bytes,
                                           config_.l2DatapathBytes),
                   config_.l2DatapathBytes)
           - 1);
}

Cycle
Simulator::l2Write(Addr base, unsigned valid_words, unsigned total_words,
                   Cycle start)
{
    Cycle duration = total_words == entry_words_
        ? entry_write_cycles_
        : writeCycles(total_words);
    bool full_line = valid_words == total_words && entry_covers_line_;
    L2Outcome outcome = l2_.write(base, full_line);
    if (outcome.memoryFetch) {
        // Fetch-on-write merge for a partial line that misses L2.
        // The paper charges every retirement a fixed L2 transfer
        // (Table 1), so the merge fetch proceeds in the background:
        // it occupies the memory channel (delaying later demand
        // fetches) but not the L2 port (DESIGN.md §3).
        memory_.read(start + config_.l2Latency);
    }
    if (outcome.dirtyWriteBack)
        memory_.writeBack(start + duration);
    if (outcome.invalidation)
        l1d_.invalidate(*outcome.invalidation);
    if (event_log_)
        event_log_->record(start, SimEventKind::WbWrite, base,
                           valid_words);
    if (timeline_ != nullptr)
        timeline_->add(obs::Channel::WbWords, start, valid_words);
    return duration;
}

void
Simulator::advanceIssue()
{
    if (++issue_slot_ >= config_.issueWidth) {
        issue_slot_ = 0;
        ++cycle_;
    }
    if (config_.bubbleProbability > 0.0
        && bubble_rng_.nextBool(config_.bubbleProbability)) {
        ++cycle_;
    }
}

void
Simulator::fetchMiss(Addr pc)
{
    ++ifetch_misses_;
    note(SimEventKind::IFetchMiss, pc);
    if (!buffer_->quiescent())
        buffer_->advanceTo(cycle_);
    // An I-fetch miss reads L2 like a data miss; waiting on a write
    // is the §4.3 "L2-I-fetch stall" category, tracked separately
    // from the paper's three data-side categories.
    Count events_unused = 0;
    Count max_unused = 0;
    cycle_ = l2DemandRead(pc, cycle_, l2_ifetch_stall_cycles_,
                          events_unused, max_unused,
                          obs::Channel::IFetchStall);
    l1i_.fill(pc);
}

Cycle
Simulator::l2DemandRead(Addr addr, Cycle earliest, Count &stall_cycles,
                        Count &stall_events, Count &max_episode,
                        obs::Channel channel)
{
    Cycle t = earliest;
    Cycle start;
    if (!port_.busArbitrated()) {
        if (port_.busyAt(t)) {
            // Blocking caches mean a previous demand read always
            // finished before the CPU resumed, so any occupancy here
            // is a write-buffer transaction: an L2-read-access stall.
            wbsim_assert(port_.writeUnderwayAt(t),
                         "demand read blocked by another read");
            Cycle wait = port_.freeAt() - t;
            stall_cycles += wait;
            ++stall_events;
            max_episode = std::max<Count>(max_episode, wait);
            note(SimEventKind::ReadAccessStall, addr, wait);
            publishReadStall(t, wait, channel);
            t = port_.freeAt();
        }
        start = port_.begin(L2Txn::Read, t, config_.l2Latency);
        wbsim_assert(start == t, "demand read start raced the L2 port");
    } else {
        // Shared bus: the wait is only known after arbitration (a
        // lagging core may slip in ahead), and the blocker may be
        // another core's read, not just a write. Either way the CPU
        // sat waiting for L2 read service: an L2-read-access stall,
        // now inflated by contention (the fig_mc_bus axis).
        start = port_.begin(L2Txn::Read, t, config_.l2Latency);
        if (start > t) {
            Cycle wait = start - t;
            stall_cycles += wait;
            ++stall_events;
            max_episode = std::max<Count>(max_episode, wait);
            note(SimEventKind::ReadAccessStall, addr, wait);
            publishReadStall(t, wait, channel);
        }
    }
    Cycle done = start + config_.l2Latency;
    L2Outcome outcome = l2_.read(addr);
    if (outcome.memoryFetch) {
        // The L2 port is released during the memory access (§4.2):
        // the write buffer may retire meanwhile.
        done = memory_.read(done);
    }
    if (outcome.dirtyWriteBack)
        memory_.writeBack(done);
    if (outcome.invalidation)
        l1d_.invalidate(*outcome.invalidation);
    return done;
}

void
Simulator::doStore(Addr addr, unsigned size)
{
    ++stores_;
    bool l1_hit = l1d_.store(addr); // write-through (functional)
    if (!l1_hit && config_.l1WriteAllocate) {
        // Write-allocate: fetch the line through L2 before writing.
        // If the block is active in the write buffer the fill merges
        // its words for free, exactly as a read-from-WB word-miss
        // fill does (§2.2); no flush is needed.
        ++store_fetches_;
        if (!buffer_->quiescent())
            buffer_->advanceTo(cycle_);
        // The fetch is a demand read: waiting behind an underway
        // write is an L2-read-access stall (Table 3), exactly as on
        // the load-miss path.
        Cycle done = l2DemandRead(addr, cycle_,
                                  stalls_.l2ReadAccessCycles,
                                  stalls_.l2ReadAccessEvents,
                                  stalls_.l2ReadAccessMaxEpisode);
        store_fetch_cycles_ += done - cycle_;
        cycle_ = done;
        l1d_.fill(addr);
    }
    note(SimEventKind::Store, addr);
    Count full_before = stalls_.bufferFullCycles;
    cycle_ = buffer_->store(addr, size, cycle_, stalls_);
    Count full_delta = stalls_.bufferFullCycles - full_before;
    if (full_delta != 0) {
        note(SimEventKind::BufferFullStall, addr, full_delta);
        if (metrics_ != nullptr)
            metrics_->sample(m_stall_full_, full_delta);
        if (timeline_ != nullptr)
            timeline_->add(obs::Channel::BufferFullStall, cycle_,
                           full_delta);
    }
    if (timeline_ != nullptr) {
        timeline_->add(obs::Channel::Stores, cycle_, 1);
        timeline_->add(obs::Channel::OccupancySum, cycle_,
                       buffer_->occupancy());
    }
}

void
Simulator::doLoad(Addr addr, unsigned size)
{
    ++loads_;
    if (l1d_.load(addr)) {
        note(SimEventKind::LoadHit, addr);
        return; // 1-cycle hit: the issue cycle already charged
    }
    note(SimEventKind::LoadMiss, addr);
    doLoadMiss(addr, size);
}

void
Simulator::doLoadMiss(Addr addr, unsigned size)
{
    if (!buffer_->quiescent())
        buffer_->advanceTo(cycle_);

    // UltraSPARC-style priority inversion: above the threshold the
    // buffer drains below it before the read may proceed.
    unsigned threshold = config_.writeBuffer.writePriorityThreshold;
    if (threshold != 0 && buffer_->occupancy() >= threshold) {
        Cycle t = buffer_->drainBelow(threshold, cycle_);
        if (t > cycle_) {
            Cycle wait = t - cycle_;
            stalls_.l2ReadAccessCycles += wait;
            ++stalls_.l2ReadAccessEvents;
            stalls_.l2ReadAccessMaxEpisode =
                std::max<Count>(stalls_.l2ReadAccessMaxEpisode, wait);
            publishReadStall(cycle_, wait,
                             obs::Channel::ReadAccessStall);
            cycle_ = t;
        }
    }

    LoadProbe probe = buffer_->probeLoad(addr, size);
    if (probe.blockHit) {
        HazardResult hazard =
            buffer_->handleLoadHazard(probe, addr, size, cycle_);
        note(SimEventKind::Hazard, addr, hazard.done - cycle_,
             hazard.servedFromBuffer ? 1 : 0);
        if (hazard.done > cycle_) {
            Cycle wait = hazard.done - cycle_;
            stalls_.loadHazardCycles += wait;
            ++stalls_.loadHazardEvents;
            stalls_.loadHazardMaxEpisode =
                std::max<Count>(stalls_.loadHazardMaxEpisode, wait);
            if (metrics_ != nullptr)
                metrics_->sample(m_stall_hazard_, wait);
            if (timeline_ != nullptr)
                timeline_->add(obs::Channel::HazardStall, cycle_, wait);
        }
        cycle_ = hazard.done;
        if (hazard.servedFromBuffer)
            return; // as fast as an L1 hit; no fill, no L2 access
    }

    cycle_ = l2DemandRead(addr, cycle_, stalls_.l2ReadAccessCycles,
                          stalls_.l2ReadAccessEvents,
                          stalls_.l2ReadAccessMaxEpisode);
    l1d_.fill(addr);
}

void
Simulator::step(const TraceRecord &record)
{
    ++instructions_;
    advanceIssue();
    if (!config_.perfectICache) {
        fetch(record.pc);
        last_pc_ = record.pc;
    }
    switch (record.op) {
      case Op::NonMem:
        break;
      case Op::Load:
        doLoad(record.addr, record.size);
        break;
      case Op::Store:
        doStore(record.addr, record.size);
        break;
      case Op::Barrier:
        doBarrier();
        break;
    }
}

std::size_t
Simulator::runPrivatePrefix(TraceRun *items, std::size_t count,
                            Count limit)
{
    wbsim_assert(event_log_ == nullptr,
                 "private-prefix feed with an event log attached");
    return withFeedFlags([&](auto real_icache, auto bubbles) {
        return privatePrefix<decltype(real_icache)::value,
                             decltype(bubbles)::value>(items, count,
                                                       limit);
    });
}

template <bool RealICache, bool Bubbles>
std::size_t
Simulator::privatePrefix(TraceRun *items, std::size_t count,
                         Count limit)
{
    // A fetch that misses reads L2, so it is visible: stop before it.
    auto fetch_hit = [this](Addr pc) {
        if (!l1i_.probe(pc))
            return false;
        issueRun<Bubbles>(1);
        l1i_.fetch(pc);
        return true;
    };
    for (std::size_t i = 0; i < count; ++i) {
        TraceRun &item = items[i];
        if (item.nonMemBefore != 0) {
            Count ran =
                std::min<Count>(item.nonMemBefore, limit - instructions_);
            if constexpr (RealICache)
                ran = fetchRun<Bubbles>(ran, fetch_hit);
            else
                issueRun<Bubbles>(ran);
            item.nonMemBefore -= static_cast<std::uint32_t>(ran);
            if (item.nonMemBefore != 0)
                return i;
        }
        // Private: a carrier NonMem record, or a load that hits L1
        // (doLoad()'s hit path: the issue cycle is the whole cost).
        const TraceRecord &rec = item.rec;
        if (instructions_ == limit
            || (rec.op != Op::NonMem
                && (rec.op != Op::Load || !l1d_.probe(rec.addr))))
            return i;
        if constexpr (RealICache) {
            if (!fetch_hit(rec.pc))
                return i;
            last_pc_ = rec.pc;
        } else {
            issueRun<Bubbles>(1);
        }
        if (rec.op == Op::Load) {
            ++loads_;
            l1d_.load(rec.addr);
        }
    }
    return count;
}

void
Simulator::doBarrier()
{
    // §2.2: ordering instructions drain the buffer; the CPU stalls
    // until every buffered write is in L2.
    ++barriers_;
    Cycle done = buffer_->drainBelow(1, cycle_);
    note(SimEventKind::Barrier, 0, done - cycle_);
    if (done > cycle_) {
        Cycle wait = done - cycle_;
        barrier_stall_cycles_ += wait;
        if (metrics_ != nullptr)
            metrics_->sample(m_stall_barrier_, wait);
        if (timeline_ != nullptr)
            timeline_->add(obs::Channel::BarrierStall, cycle_, wait);
        cycle_ = done;
    }
}

template <bool Bubbles, typename FetchFirst>
Count
Simulator::fetchRun(Count count, FetchFirst fetch_first)
{
    const Addr line = config_.l1i.lineBytes;
    Addr pc = last_pc_;
    Count done = 0;
    while (done < count && fetch_first(pc + 4)) {
        pc += 4;
        // The run's later PCs in this line: pc + 4j < line end.
        Count rest = std::min<Count>(
            count - done - 1, (alignDown(pc, line) + line - pc - 1) / 4);
        if (rest != 0) {
            issueRun<Bubbles>(rest);
            l1i_.fetchRepeat(pc, rest);
            pc += 4 * rest;
        }
        done += 1 + rest;
    }
    last_pc_ = pc;
    return done;
}

template <bool RealICache, bool Bubbles>
void
Simulator::runItems(const TraceRun *items, std::size_t count)
{
    auto issue_and_fetch = [this](Addr pc) {
        issueRun<Bubbles>(1);
        fetch(pc);
        return true;
    };
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRun &item = items[i];
        const TraceRecord &rec = item.rec;
        if constexpr (RealICache) {
            if (item.nonMemBefore != 0)
                fetchRun<Bubbles>(item.nonMemBefore, issue_and_fetch);
            issue_and_fetch(rec.pc);
            last_pc_ = rec.pc;
        } else {
            // The run and the record's own issue slot in one charge.
            issueRun<Bubbles>(item.nonMemBefore + Count{1});
        }
        switch (rec.op) {
          case Op::NonMem:
            break; // a carrier item: the record is one more NonMem
          case Op::Load:
            if (event_log_ == nullptr) [[likely]] {
                // doLoad() with the hit path in place.
                ++loads_;
                if (!l1d_.load(rec.addr))
                    doLoadMiss(rec.addr, rec.size);
            } else {
                doLoad(rec.addr, rec.size);
            }
            break;
          case Op::Store:
            doStore(rec.addr, rec.size);
            break;
          case Op::Barrier:
            doBarrier();
            break;
        }
    }
}

void
Simulator::feed(const TraceRun *items, std::size_t count)
{
    withFeedFlags([&](auto real_icache, auto bubbles) {
        runItems<decltype(real_icache)::value,
                 decltype(bubbles)::value>(items, count);
    });
}

Count
Simulator::consume(TraceSource &source,
                   std::span<Simulator *const> sims, Count count)
{
    // All simulators advance by the same records, so the first one's
    // instruction count tracks the budget for all.
    TraceRun items[kFeedBatch];
    const Simulator &lead = *sims.front();
    const Count start = lead.instructions_;
    for (Count done = 0; done < count;
         done = lead.instructions_ - start) {
        std::size_t got = source.nextRuns(items, kFeedBatch, count - done);
        if (got == 0)
            break;
        for (Simulator *sim : sims)
            sim->feed(items, got);
    }
    return lead.instructions_ - start;
}

void
Simulator::drain()
{
    if (!buffer_->quiescent())
        buffer_->advanceTo(cycle_);
    cycle_ = std::max(cycle_, buffer_->drainBelow(1, cycle_));
}

void
Simulator::resetStats()
{
    cycle_base_ = cycle_;
    instructions_ = 0;
    loads_ = 0;
    stores_ = 0;
    stalls_ = StallStats{};
    ifetch_misses_ = 0;
    l2_ifetch_stall_cycles_ = 0;
    barriers_ = 0;
    barrier_stall_cycles_ = 0;
    store_fetches_ = 0;
    store_fetch_cycles_ = 0;
    l1d_.resetStats();
    l1i_.resetStats();
    l2_.resetStats();
    memory_.resetStats();
    buffer_->resetStats();
    buffer_pending_at_reset_ = bufferPending();
}

SimResults
Simulator::results(const std::string &workload) const
{
    SimResults r;
    r.workload = workload;
    r.machine = config_.describe();
    r.instructions = instructions_;
    r.cycles = cycle_ - cycle_base_;
    r.loads = loads_;
    r.stores = stores_;
    r.stalls = stalls_;
    r.l1LoadHits = l1d_.loadHits();
    r.l1LoadMisses = l1d_.loadMisses();
    r.l1StoreHits = l1d_.storeHits();
    r.l1StoreMisses = l1d_.storeMisses();
    const StoreBufferStats &bs = buffer_->stats();
    r.wbMerges = bs.merges;
    r.wbAllocations = bs.allocations;
    r.wbRetirements = bs.retirements;
    r.wbFlushes = bs.flushes;
    r.wbHazards = bs.hazards;
    r.wbServedLoads = bs.wbServedLoads;
    r.wbWordsWritten = bs.wordsWritten;
    r.wbEntriesWritten = bs.entriesWritten;
    r.wbMeanOccupancy = bs.occupancy.mean();
    r.l2ReadHits = l2_.readHits();
    r.l2ReadMisses = l2_.readMisses();
    r.l2WriteHits = l2_.writeHits();
    r.l2WriteMisses = l2_.writeMisses();
    r.memReads = memory_.reads();
    r.memWriteBacks = memory_.writeBacks();
    r.ifetchMisses = ifetch_misses_;
    r.l2IFetchStallCycles = l2_ifetch_stall_cycles_;
    r.barriers = barriers_;
    r.barrierStallCycles = barrier_stall_cycles_;
    r.storeFetches = store_fetches_;
    r.storeFetchCycles = store_fetch_cycles_;
#ifndef NDEBUG
    // Conservation over the measured region: every store merges or
    // allocates, every allocation is written to L2 or still pending,
    // and attributed stalls fit inside the cycles run.
    Count stalled = r.stalls.totalCycles() + r.barrierStallCycles
        + r.l2IFetchStallCycles;
    wbsim_assert(r.wbMerges + r.wbAllocations == r.stores,
                 "stores not conserved (", r.machine, ")");
    wbsim_assert(r.wbAllocations + buffer_pending_at_reset_
                     == r.wbEntriesWritten + bufferPending(),
                 "allocations not conserved (", r.machine, ")");
    wbsim_assert(stalled <= r.cycles, "stalls exceed cycles (",
                 r.machine, ")");
#endif
    return r;
}

SimResults
Simulator::run(TraceSource &source, Count max_instructions)
{
    Count budget = TraceSource::kNoBudget;
    if (max_instructions != 0)
        budget = max_instructions > instructions_
            ? max_instructions - instructions_
            : 0;
    consume(source, budget);
    drain();
    return results(source.name());
}

} // namespace wbsim
