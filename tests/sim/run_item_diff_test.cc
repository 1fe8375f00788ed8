/**
 * @file
 * Seeded differential test of the run-item feed against the
 * per-record reference: over random machines (buffer kind, hazard
 * policy, retirement mode, issue width, write-allocate, real L2,
 * perfect or real I-cache of several geometries, issue bubbles) and
 * cut points (warmup and run limits landing inside a NonMem run, at a
 * carrier item and at a record), Simulator::consume()/run() fed run
 * items — natively from a materialized cursor, or folded from a
 * generator, an in-memory trace, a trace file or a din file — must
 * produce exactly the results of one step() per record.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "harness/figures.hh"
#include "sim/simulator.hh"
#include "trace/dinero.hh"
#include "trace/materialized_trace.hh"
#include "trace/memory_trace.hh"
#include "trace/trace_file.hh"
#include "util/random.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

/** Spans two sync points, so carrier items appear mid-trace. */
constexpr Count kLength = 10'000;

/** A spec92 profile that also issues memory barriers (§2.2). */
BenchmarkProfile
barrierProfile()
{
    BenchmarkProfile profile = spec92::profile("espresso");
    profile.barrierFraction = 0.01;
    return profile;
}

/** One seeded draw of every machine axis the item loop branches on. */
MachineConfig
randomMachine(Rng &rng)
{
    MachineConfig machine = figures::baselineMachine();
    WriteBufferConfig &wb = machine.writeBuffer;
    wb.kind = rng.nextBool(0.5) ? BufferKind::WriteBuffer
                                : BufferKind::WriteCache;
    wb.depth = static_cast<unsigned>(rng.nextRange(2, 12));
    wb.highWaterMark = static_cast<unsigned>(rng.nextRange(1, wb.depth));
    const RetirementMode modes[] = {RetirementMode::Occupancy,
                                    RetirementMode::FixedRate,
                                    RetirementMode::Paced};
    wb.retirementMode = modes[rng.nextBelow(3)];
    const LoadHazardPolicy policies[] = {
        LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
        LoadHazardPolicy::FlushItemOnly, LoadHazardPolicy::ReadFromWB};
    wb.hazardPolicy = policies[rng.nextBelow(4)];
    machine.issueWidth = rng.nextBool(0.4) ? 2 : 1;
    machine.l1WriteAllocate = rng.nextBool(0.3);
    machine.perfectL2 = rng.nextBool(0.6);
    if (!machine.perfectL2)
        machine.l2.sizeBytes = 128 * 1024; // small enough to miss
    if (rng.nextBool(0.6)) {
        machine.perfectICache = false;
        const std::uint64_t lines[] = {16, 32, 64};
        machine.l1i.lineBytes = lines[rng.nextBelow(3)];
        machine.l1i.associativity = rng.nextBool(0.5) ? 2 : 1;
        // Small enough that the code loops miss now and then.
        machine.l1i.sizeBytes = rng.nextBool(0.5) ? 1024 : 4096;
    }
    if (rng.nextBool(0.3))
        machine.bubbleProbability = rng.nextBool(0.5) ? 0.1 : 0.4;
    machine.validate();
    return machine;
}

/** Record index ranges of the items a fresh cursor hands out. */
struct ItemSpan
{
    Count first = 0;    //!< index of the item's first record
    Count run = 0;      //!< NonMem records before the item's record
    bool carrier = false;
};

std::vector<ItemSpan>
itemSpans(const MaterializedTrace &trace)
{
    std::vector<ItemSpan> spans;
    MaterializedCursor cursor(trace);
    TraceRun items[64];
    Count at = 0;
    std::size_t got;
    while ((got = cursor.nextRuns(items, 64)) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            spans.push_back(ItemSpan{at, items[i].nonMemBefore,
                                     items[i].rec.op == Op::NonMem});
            at += items[i].nonMemBefore + Count{1};
        }
    }
    return spans;
}

/** Kinds of record positions a budget may end at. */
enum class Cut { InsideRun, AfterCarrier, AfterRecord };

/** A position (records from the trace start) of the given kind,
 *  strictly inside (lo, hi); 0 if the trace has none there. */
Count
pickCut(Rng &rng, const std::vector<ItemSpan> &spans, Cut kind, Count lo,
        Count hi)
{
    std::vector<Count> candidates;
    for (const ItemSpan &span : spans) {
        Count end = span.first + span.run + 1;
        switch (kind) {
          case Cut::InsideRun:
            // Between two records of the run, or between the run
            // and its record (the run done, the record parked).
            for (Count k = 1; k <= span.run; ++k)
                candidates.push_back(span.first + k);
            break;
          case Cut::AfterCarrier:
            if (span.carrier)
                candidates.push_back(end);
            break;
          case Cut::AfterRecord:
            if (!span.carrier)
                candidates.push_back(end);
            break;
        }
    }
    std::vector<Count> inside;
    for (Count c : candidates)
        if (c > lo && c < hi)
            inside.push_back(c);
    if (inside.empty())
        return 0;
    return inside[rng.nextBelow(inside.size())];
}

/** Everything one differential case needs. */
struct Case
{
    MachineConfig machine;
    BenchmarkProfile profile;
    std::uint64_t seed = 1;
    Count warmup = 0;
    Count limit = 0; //!< run() limit after warmup (0 = none)

    std::string
    describe() const
    {
        std::ostringstream os;
        os << profile.name << " seed=" << seed << " warmup=" << warmup
           << " limit=" << limit << "\n  " << machine.describe()
           << (machine.perfectICache ? " perfect-I" : " real-I")
           << " iline=" << machine.l1i.lineBytes
           << " iways=" << machine.l1i.associativity
           << " bubbles=" << machine.bubbleProbability;
        return os.str();
    }
};

/** The reference: one step() per record. */
SimResults
stepAll(const Case &c, const std::vector<TraceRecord> &records,
        const std::string &workload)
{
    Simulator sim(c.machine);
    std::size_t i = 0;
    for (; i < c.warmup; ++i)
        sim.step(records[i]);
    if (c.warmup > 0)
        sim.resetStats();
    std::size_t end = c.limit == 0
        ? records.size()
        : std::min(records.size(),
                   static_cast<std::size_t>(c.warmup + c.limit));
    for (; i < end; ++i)
        sim.step(records[i]);
    sim.drain();
    return sim.results(workload);
}

/** Every record @p source delivers, from its start. */
std::vector<TraceRecord>
drain(TraceSource &source)
{
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (source.next(record))
        records.push_back(record);
    source.reset();
    return records;
}

/** consume(warmup) + resetStats + run(limit) over @p source. */
SimResults
feedAll(const Case &c, TraceSource &source)
{
    Simulator sim(c.machine);
    if (c.warmup > 0) {
        EXPECT_EQ(sim.consume(source, c.warmup), c.warmup);
        sim.resetStats();
    }
    return sim.run(source, c.limit);
}

/** Diff every feed against the reference; returns the reference. */
SimResults
expectFeedsMatchReference(const Case &c)
{
    SyntheticSource generator(c.profile, kLength, c.seed);
    MaterializedTrace trace = MaterializedTrace::build(generator);
    MaterializedCursor flat(trace);
    std::vector<TraceRecord> records = drain(flat);
    SimResults reference = stepAll(c, records, c.profile.name);
    if (c.limit != 0) {
        EXPECT_EQ(reference.instructions, c.limit) << c.describe();
    }

    MaterializedCursor cursor(trace);
    EXPECT_EQ(feedAll(c, cursor), reference) << "native items\n"
                                             << c.describe();
    SyntheticSource again(c.profile, kLength, c.seed);
    EXPECT_EQ(feedAll(c, again), reference) << "folded items\n"
                                            << c.describe();
    // The fold over a plain record list (MemoryTrace) too.
    MemoryTrace memory(records, c.profile.name);
    EXPECT_EQ(feedAll(c, memory), reference) << "memory trace\n"
                                             << c.describe();

    // File round trips. A din file keeps no access sizes (every
    // access reads back as 4 bytes, which no word-aligned address
    // straddles), no load/store pcs and no barriers, so its reference
    // steps the records it reads back.
    std::string stem = (std::filesystem::temp_directory_path()
                        / ("wbsim_run_item_diff_"
                           + std::to_string(::getpid())))
                           .string();
    memory.reset();
    writeTraceFile(stem + ".wbt", memory, true);
    TraceFileReader file(stem + ".wbt");
    EXPECT_EQ(feedAll(c, file), reference) << "trace file\n"
                                           << c.describe();
    memory.reset();
    writeDineroFile(stem + ".din", memory);
    DineroReader din(stem + ".din", 4);
    EXPECT_EQ(feedAll(c, din), stepAll(c, drain(din), din.name()))
        << "din file\n"
        << c.describe();
    std::error_code ec;
    std::filesystem::remove(stem + ".wbt", ec);
    std::filesystem::remove(stem + ".din", ec);
    return reference;
}

TEST(RunItemDiff, RandomMachinesAndCutsMatchPerRecordSteps)
{
    Rng rng(0x5eed'17e5);
    const BenchmarkProfile profiles[] = {
        spec92::profile("compress"), spec92::profile("tomcatv"),
        spec92::profile("sc"), barrierProfile()};
    int real_icache = 0;
    int ifetch_missing = 0;
    int bubbles_cut_in_runs = 0;
    int picked[3] = {0, 0, 0}; // cuts placed, per Cut kind
    for (int round = 0; round < 48; ++round) {
        Case c;
        c.machine = randomMachine(rng);
        c.profile = profiles[rng.nextBelow(4)];
        c.seed = 1 + rng.nextBelow(1000);

        SyntheticSource generator(c.profile, kLength, c.seed);
        std::vector<ItemSpan> spans =
            itemSpans(MaterializedTrace::build(generator));
        // Warmup and limit cut kinds cycle through every pairing.
        const Cut kinds[] = {Cut::InsideRun, Cut::AfterCarrier,
                             Cut::AfterRecord};
        int warm_kind = round % 3;
        int limit_kind = (round / 3) % 3;
        if (round % 4 != 3) {
            c.warmup = pickCut(rng, spans, kinds[warm_kind], 0,
                               kLength / 2);
            picked[warm_kind] += c.warmup != 0 ? 1 : 0;
        }
        if (round % 5 != 4) {
            Count end = pickCut(rng, spans, kinds[limit_kind],
                                c.warmup, kLength);
            c.limit = end == 0 ? 0 : end - c.warmup;
            picked[limit_kind] += end != 0 ? 1 : 0;
        }
        SimResults reference = expectFeedsMatchReference(c);
        real_icache += c.machine.perfectICache ? 0 : 1;
        ifetch_missing += reference.ifetchMisses > 0 ? 1 : 0;
        bool cut_in_run = (c.warmup != 0 && warm_kind == 0)
            || (c.limit != 0 && limit_kind == 0);
        bubbles_cut_in_runs +=
            c.machine.bubbleProbability > 0.0 && cut_in_run ? 1 : 0;
    }
    // Guard against a vacuous diff: real I-caches must be drawn, and
    // some must miss in the measured region; bubble machines must
    // meet warmups and limits cut inside a run.
    EXPECT_GT(real_icache, 12);
    EXPECT_GT(ifetch_missing, 4);
    EXPECT_GT(bubbles_cut_in_runs, 3);
    for (int kind = 0; kind < 3; ++kind)
        EXPECT_GT(picked[kind], 4) << "cut kind " << kind;
}

TEST(RunItemDiff, EveryICacheGeometryMatchesPerRecordSteps)
{
    for (std::uint64_t line : {16u, 32u, 64u}) {
        for (std::uint64_t ways : {1u, 2u}) {
            Case c;
            c.machine = figures::baselineMachine();
            c.machine.perfectICache = false;
            c.machine.l1i = CacheGeometry{1024, line, ways};
            c.profile = spec92::profile("espresso");
            c.seed = 11;
            c.warmup = 2'501;
            c.limit = 6'007;
            SimResults reference = expectFeedsMatchReference(c);
            EXPECT_GT(reference.ifetchMisses, 0u) << c.describe();
        }
    }
}

TEST(RunItemDiff, CheckpointResumeMatchesPerRecordSteps)
{
    // A warm snapshot forked into a fresh simulator, with the cursor
    // seeked to the warmup boundary (mid-run here), must continue
    // exactly as the per-record reference: the snapshot carries the
    // PC a real I-cache's next run continues from, and the bubble RNG.
    for (int shape = 0; shape < 4; ++shape) {
        bool real_icache = shape % 2 == 1;
        Case c;
        c.machine = figures::baselineMachine();
        c.machine.perfectICache = !real_icache;
        c.machine.bubbleProbability = shape < 2 ? 0.0 : 0.4;
        c.machine.l1i = CacheGeometry{1024, 16, 1};
        c.profile = spec92::profile("compress");
        c.seed = 5;
        SyntheticSource generator(c.profile, kLength, c.seed);
        MaterializedTrace trace = MaterializedTrace::build(generator);
        Rng rng(77);
        c.warmup = pickCut(rng, itemSpans(trace), Cut::InsideRun, 1000,
                           kLength / 2);
        ASSERT_GT(c.warmup, 0u);

        MaterializedCursor flat(trace);
        SimResults reference = stepAll(c, drain(flat), c.profile.name);

        MaterializedCursor warm_cursor(trace);
        Simulator warm(c.machine);
        warm.consume(warm_cursor, c.warmup);
        warm.resetStats();
        SimSnapshot snap = warm.snapshot();

        Simulator forked(c.machine);
        forked.restore(snap);
        MaterializedCursor cursor(trace);
        cursor.seek(c.warmup);
        EXPECT_EQ(forked.run(cursor), reference) << c.describe();
    }
}

TEST(RunItemDiff, ConsumeThenRunEqualsOneRun)
{
    Rng rng(0xc05);
    for (int round = 0; round < 12; ++round) {
        MachineConfig machine = randomMachine(rng);
        BenchmarkProfile profile = round % 2 == 0
            ? spec92::profile("compress")
            : barrierProfile();
        SyntheticSource generator(profile, kLength, 40 + round);
        MaterializedTrace trace = MaterializedTrace::build(generator);

        MaterializedCursor whole(trace);
        Simulator one(machine);
        SimResults expected = one.run(whole);

        Count k = 1 + rng.nextBelow(kLength - 1);
        MaterializedCursor split(trace);
        Simulator two(machine);
        EXPECT_EQ(two.consume(split, k), k);
        EXPECT_EQ(two.run(split), expected)
            << "k=" << k << " " << machine.describe();
    }
}

} // namespace
} // namespace wbsim
