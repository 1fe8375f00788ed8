#include "workloads/generator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace wbsim
{

namespace
{

/** Arena stride between behaviour address spaces: far apart, but the
 *  low bits still collide in set indices, which is realistic. */
constexpr Addr kArenaStride = Addr{1} << 33;
constexpr Addr kCodeBase = Addr{1} << 60;

double
expectedBurstLength(double continue_prob, unsigned cap)
{
    if (continue_prob <= 0.0)
        return 1.0;
    // E[len] for 1 + min(Geom(p), cap-1).
    return (1.0 - std::pow(continue_prob, cap)) / (1.0 - continue_prob);
}

} // namespace

SyntheticSource::SyntheticSource(BenchmarkProfile profile,
                                 Count instructions, std::uint64_t seed)
    : profile_(std::move(profile)), limit_(instructions), seed_(seed)
{
    profile_.validate();
    // Renewal analysis: per non-burst "draw" slot, a burst start
    // (probability q) contributes E[len] stores and E[len]-1 extra
    // instructions, so the overall store fraction is
    // f = qE / (1 + q(E-1)). Invert for q, and inflate the per-draw
    // load probability by the burst-continuation expansion factor.
    double mean_burst = expectedBurstLength(profile_.storeBurstContinue,
                                            profile_.storeBurstCap);
    double f = profile_.pctStores;
    double p_burst_start = f / (mean_burst * (1.0 - f) + f);
    double expansion = 1.0 + p_burst_start * (mean_burst - 1.0);
    double p_load_draw = profile_.pctLoads * expansion;
    if (p_burst_start + p_load_draw > 1.0)
        wbsim_fatal(profile_.name,
                    ": burst parameters push op probabilities over 1");
    burst_cut_ = Rng::doubleCut(p_burst_start);
    load_cut_ = Rng::doubleCut(p_burst_start + p_load_draw);
    burst_continue_ = Bernoulli(profile_.storeBurstContinue);
    run_continue_ = Bernoulli(profile_.storeRunContinue);
    raw_ = Bernoulli(profile_.rawFraction);
    barrier_ = Bernoulli(profile_.barrierFraction);
    jump_ = Bernoulli(profile_.codeJumpProb);
    loops_ = std::max<std::uint64_t>(
        1, profile_.codeFootprint / profile_.codeLoop);
    rebuild();
}

void
SyntheticSource::rebuild()
{
    std::uint64_t name_hash = 0;
    for (char c : profile_.name)
        name_hash = hashCombine(name_hash, static_cast<std::uint64_t>(c));
    std::uint64_t master = hashCombine(seed_, name_hash);

    load_behaviors_.clear();
    store_behaviors_.clear();
    std::vector<double> load_weights;
    std::vector<double> store_weights;

    // Stagger each arena's base within cache index space; regions
    // starting at identical set indices would conflict artificially
    // hard in the direct-mapped L1.
    auto arena_base = [&](std::uint64_t index) {
        Addr base = (index + 1) * kArenaStride;
        std::uint64_t stagger = hashCombine(master, 0x57a6 + index);
        return base + ((stagger % (1u << 21)) & ~Addr{63});
    };

    std::uint64_t index = 0;
    std::vector<Addr> load_bases;
    for (const BehaviorSpec &spec : profile_.loadBehaviors) {
        load_bases.push_back(arena_base(index));
        load_behaviors_.emplace_back(spec, load_bases.back(),
                                     hashCombine(master, index));
        load_weights.push_back(spec.weight);
        ++index;
    }
    for (const BehaviorSpec &spec : profile_.storeBehaviors) {
        Addr base = arena_base(index);
        if (spec.shareWithLoad >= 0) {
            wbsim_assert(static_cast<std::size_t>(spec.shareWithLoad)
                             < load_bases.size(),
                         "shareWithLoad index out of range in ",
                         profile_.name);
            base = load_bases[static_cast<std::size_t>(
                spec.shareWithLoad)];
        }
        store_behaviors_.emplace_back(spec, base,
                                      hashCombine(master, index));
        store_weights.push_back(spec.weight);
        ++index;
    }
    load_cuts_ = Rng::weightedCuts(load_weights);
    store_cuts_ = Rng::weightedCuts(store_weights);

    cursor_ = Cursor{};
    cursor_.rng = Rng(hashCombine(master, 0xa11ce));
    cursor_.loopBase = kCodeBase;
    cursor_.pc = kCodeBase;
    cursor_.lastPc = kCodeBase;
}

void
SyntheticSource::reset()
{
    rebuild();
}

[[gnu::always_inline]] inline Addr
SyntheticSource::nextPc(Cursor &c)
{
    Addr pc = c.pc;
    c.pc += 4;
    if (c.pc >= c.loopBase + profile_.codeLoop)
        c.pc = c.loopBase; // close the inner loop
    if (jump_(c.rng)) {
        // Jump to another loop within the code footprint.
        c.loopBase =
            kCodeBase + c.rng.nextBelow(loops_) * profile_.codeLoop;
        c.pc = c.loopBase;
    }
    return pc;
}

[[gnu::always_inline]] inline TraceRecord
SyntheticSource::makeLoad(Cursor &c)
{
    if (c.recentCount > 0 && raw_(c.rng)) {
        unsigned span = profile_.rawDistanceMax - profile_.rawDistanceMin;
        auto back = static_cast<std::size_t>(
            profile_.rawDistanceMin
            + (span ? c.rng.nextBelow(span + 1) : 0));
        if (back > c.recentCount)
            back = c.recentCount;
        std::size_t slot =
            (c.recentHead + recent_.size() - back) % recent_.size();
        const RecentStore &rs = recent_[slot];
        return TraceRecord::load(rs.addr,
                                 static_cast<std::uint8_t>(rs.size));
    }
    Behavior &behavior = load_behaviors_[c.rng.nextWeighted(load_cuts_)];
    return TraceRecord::load(
        behavior.next(),
        static_cast<std::uint8_t>(behavior.accessBytes()));
}

[[gnu::always_inline]] inline TraceRecord
SyntheticSource::makeStore(Cursor &c)
{
    // Stores stick with one behaviour for a run: real code emits
    // runs of stores from a single loop, which is what makes
    // write-buffer coalescing work at eager retirement policies.
    if (c.storeRunLeft == 0) {
        c.storeRunBehavior = c.rng.nextWeighted(store_cuts_);
        c.storeRunLeft = run_continue_.burst(c.rng, profile_.storeRunCap);
    }
    --c.storeRunLeft;
    Behavior &behavior = store_behaviors_[c.storeRunBehavior];
    Addr addr = behavior.next();
    unsigned size = behavior.accessBytes();
    recent_[c.recentHead] = RecentStore{addr, size};
    c.recentHead = (c.recentHead + 1) % recent_.size();
    if (c.recentCount < recent_.size())
        ++c.recentCount;
    return TraceRecord::store(addr, static_cast<std::uint8_t>(size));
}

template <typename Sink>
[[gnu::always_inline]] inline void
SyntheticSource::emit(Cursor &c, Sink &sink)
{
    ++c.emitted;

    TraceRecord record;
    if (c.burstLeft > 0) {
        --c.burstLeft;
        record = makeStore(c);
    } else {
        std::uint64_t draw = c.rng.next() >> 11;
        if (draw < burst_cut_) {
            c.burstLeft =
                burst_continue_.burst(c.rng, profile_.storeBurstCap) - 1;
            record = makeStore(c);
        } else if (draw < load_cut_) {
            record = makeLoad(c);
        } else if (barrier_(c.rng)) {
            record = TraceRecord::barrier();
        } else {
            sink.nonMem(nextPc(c));
            return;
        }
    }
    record.pc = nextPc(c);
    sink.record(record);
}

namespace
{

/** Emit sink that stores each record at a cursor. */
struct RecordSink
{
    TraceRecord *out;

    void nonMem(Addr pc) { *out++ = TraceRecord::nonMem(pc); }
    void record(const TraceRecord &rec) { *out++ = rec; }
};

/** Emit sink that folds records into run items: a NonMem record
 *  joins the pending run when its pc continues the previous
 *  record's by 4. */
struct RunSink
{
    TraceRun *out;
    Addr pc;
    std::uint32_t run = 0;

    void
    nonMem(Addr at)
    {
        if (at == pc + 4) {
            ++run;
        } else {
            *out++ = TraceRun{run, TraceRecord::nonMem(at)};
            run = 0;
        }
        pc = at;
    }

    void
    record(const TraceRecord &rec)
    {
        *out++ = TraceRun{run, rec};
        run = 0;
        pc = rec.pc;
    }
};

} // namespace

bool
SyntheticSource::next(TraceRecord &record)
{
    if (cursor_.emitted >= limit_)
        return false;
    RecordSink sink{&record};
    emit(cursor_, sink);
    cursor_.lastPc = record.pc;
    return true;
}

std::size_t
SyntheticSource::nextBatch(TraceRecord *out, std::size_t max)
{
    Cursor c = cursor_;
    Count left = limit_ - std::min(c.emitted, limit_);
    std::size_t n = left < max ? static_cast<std::size_t>(left) : max;
    RecordSink sink{out};
    for (std::size_t i = 0; i < n; ++i)
        emit(c, sink);
    if (n > 0)
        c.lastPc = out[n - 1].pc;
    cursor_ = c;
    return n;
}

std::size_t
SyntheticSource::nextRuns(TraceRun *out, std::size_t max, Count budget)
{
    Cursor c = cursor_;
    Count left = std::min(budget, limit_ - std::min(c.emitted, limit_));
    RunSink sink{out, c.lastPc};
    TraceRun *const end = out + max;
    // A record joins the run only after the previous one fitted in
    // an item, so the loop exits with a run pending only when the
    // records ran out, never when the items did: the carrier has a
    // slot.
    for (; sink.out < end && left > 0; --left)
        emit(c, sink);
    if (sink.run > 0)
        *sink.out++ = TraceRun{sink.run - 1, TraceRecord::nonMem(sink.pc)};
    c.lastPc = sink.pc;
    cursor_ = c;
    return static_cast<std::size_t>(sink.out - out);
}

} // namespace wbsim
