/**
 * @file
 * Unit tests for MemoryTrace, the source adapters, and the default
 * run-item fold every TraceSource inherits.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/memory_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

MemoryTrace
sampleTrace(std::size_t n)
{
    MemoryTrace trace({}, "sample");
    for (std::size_t i = 0; i < n; ++i)
        trace.append(TraceRecord::load(i * 8));
    return trace;
}

TEST(MemoryTrace, IterationAndReset)
{
    MemoryTrace trace = sampleTrace(3);
    TraceRecord rec;
    std::size_t count = 0;
    while (trace.next(rec)) {
        EXPECT_EQ(rec.addr, count * 8);
        ++count;
    }
    EXPECT_EQ(count, 3u);
    EXPECT_FALSE(trace.next(rec));

    trace.reset();
    EXPECT_TRUE(trace.next(rec));
    EXPECT_EQ(rec.addr, 0u);
}

TEST(MemoryTrace, AppendWhileReading)
{
    MemoryTrace trace = sampleTrace(1);
    TraceRecord rec;
    EXPECT_TRUE(trace.next(rec));
    trace.append(TraceRecord::store(0x99, 8));
    EXPECT_TRUE(trace.next(rec));
    EXPECT_TRUE(rec.isStore());
}

TEST(MemoryTrace, CaptureDrainsSource)
{
    MemoryTrace inner = sampleTrace(5);
    MemoryTrace captured = MemoryTrace::capture(inner, "copy");
    EXPECT_EQ(captured.size(), 5u);
    EXPECT_EQ(captured.name(), "copy");
    EXPECT_EQ(captured.at(4).addr, 32u);
}

TEST(TruncatedSource, StopsAtLimit)
{
    MemoryTrace trace = sampleTrace(10);
    TruncatedSource truncated(trace, 4);
    TraceRecord rec;
    std::size_t count = 0;
    while (truncated.next(rec))
        ++count;
    EXPECT_EQ(count, 4u);
}

TEST(TruncatedSource, LimitBeyondSource)
{
    MemoryTrace trace = sampleTrace(2);
    TruncatedSource truncated(trace, 100);
    TraceRecord rec;
    std::size_t count = 0;
    while (truncated.next(rec))
        ++count;
    EXPECT_EQ(count, 2u);
}

TEST(TruncatedSource, ResetRestartsBoth)
{
    MemoryTrace trace = sampleTrace(10);
    TruncatedSource truncated(trace, 3);
    TraceRecord rec;
    while (truncated.next(rec)) {
    }
    truncated.reset();
    EXPECT_TRUE(truncated.next(rec));
    EXPECT_EQ(rec.addr, 0u);
}

TEST(ConcatSource, ChainsInOrder)
{
    MemoryTrace a({TraceRecord::load(1 * 8), TraceRecord::load(2 * 8)});
    MemoryTrace b({TraceRecord::load(3 * 8)});
    ConcatSource concat({&a, &b});
    TraceRecord rec;
    std::vector<Addr> addrs;
    while (concat.next(rec))
        addrs.push_back(rec.addr);
    EXPECT_EQ(addrs, (std::vector<Addr>{8, 16, 24}));
}

TEST(ConcatSource, ResetRestartsAllParts)
{
    MemoryTrace a({TraceRecord::load(8)});
    MemoryTrace b({TraceRecord::load(16)});
    ConcatSource concat({&a, &b});
    TraceRecord rec;
    while (concat.next(rec)) {
    }
    concat.reset();
    std::size_t count = 0;
    while (concat.next(rec))
        ++count;
    EXPECT_EQ(count, 2u);
}

TEST(ConcatSource, EmptyPartsSkipped)
{
    MemoryTrace a;
    MemoryTrace b({TraceRecord::load(8)});
    MemoryTrace c;
    ConcatSource concat({&a, &b, &c});
    TraceRecord rec;
    EXPECT_TRUE(concat.next(rec));
    EXPECT_FALSE(concat.next(rec));
}

/** Expand run items into (op, addr) pairs; NonMem pcs are not
 *  carried by a run, so only the op sequence is compared for them. */
std::vector<TraceRecord>
expandOps(TraceSource &source, std::size_t batch_items)
{
    std::vector<TraceRecord> out;
    std::vector<TraceRun> items(batch_items);
    for (;;) {
        std::size_t got = source.nextRuns(items.data(), batch_items);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            for (std::uint32_t k = 0; k < items[i].nonMemBefore; ++k)
                out.push_back(TraceRecord::nonMem());
            out.push_back(items[i].rec);
        }
    }
    return out;
}

TEST(TraceSource, DefaultNextRunsFoldsNonMemRunsIntoItems)
{
    std::vector<TraceRecord> records = {
        TraceRecord::nonMem(4),   TraceRecord::nonMem(8),
        TraceRecord::load(0x40),  TraceRecord::store(0x80),
        TraceRecord::nonMem(20),  TraceRecord::barrier(24),
        TraceRecord::nonMem(28),  TraceRecord::nonMem(32),
        TraceRecord::nonMem(36)};
    MemoryTrace trace(records);
    TraceRun items[16];
    // A NonMem record joins a run only when its pc continues the
    // record before it by 4 in the same call, so the first record
    // and the jump to 20 are items' own records.
    ASSERT_EQ(trace.nextRuns(items, 16), 6u);
    EXPECT_EQ(items[0].nonMemBefore, 0u);
    EXPECT_EQ(items[0].rec, records[0]);
    EXPECT_EQ(items[1].nonMemBefore, 1u);
    EXPECT_EQ(items[1].rec, records[2]);
    EXPECT_EQ(items[2].nonMemBefore, 0u);
    EXPECT_EQ(items[2].rec, records[3]);
    EXPECT_EQ(items[3].nonMemBefore, 0u);
    EXPECT_EQ(items[3].rec, records[4]);
    EXPECT_EQ(items[4].nonMemBefore, 0u);
    EXPECT_EQ(items[4].rec, records[5]);
    // The trailing run has no record to join: carrier form.
    EXPECT_EQ(items[5].nonMemBefore, 2u);
    EXPECT_EQ(items[5].rec, records[8]);
    EXPECT_EQ(trace.nextRuns(items, 16), 0u);
}

TEST(TraceSource, DefaultNextRunsCoversTheRecordStream)
{
    // Mixed runs of every length, cut at awkward item-batch sizes:
    // the items must cover the stream record for record.
    std::vector<TraceRecord> records;
    for (std::size_t i = 0; i < 2'000; ++i) {
        std::size_t phase = (i * 7) % 13;
        if (phase == 0)
            records.push_back(TraceRecord::store(i * 8));
        else if (phase == 5)
            records.push_back(TraceRecord::load(i * 8));
        else
            records.push_back(TraceRecord::nonMem(i * 4));
    }
    for (std::size_t batch : {1u, 2u, 3u, 17u, 300u}) {
        MemoryTrace trace(records);
        std::vector<TraceRecord> expanded = expandOps(trace, batch);
        ASSERT_EQ(expanded.size(), records.size()) << batch;
        for (std::size_t i = 0; i < records.size(); ++i) {
            ASSERT_EQ(expanded[i].op, records[i].op)
                << "batch " << batch << " record " << i;
            if (records[i].op != Op::NonMem) {
                ASSERT_EQ(expanded[i], records[i]);
            }
        }
    }
}

TEST(TraceSource, DefaultNextRunsHonoursTheBudget)
{
    // Every call covers exactly min(budget, records left) records,
    // and the cut calls still cover the stream record for record.
    std::vector<TraceRecord> records;
    for (std::size_t i = 0; i < 1'000; ++i)
        records.push_back(i % 9 == 0 ? TraceRecord::load(i * 8)
                                     : TraceRecord::nonMem(i * 4));
    for (Count budget = 1; budget <= 300; budget += 7) {
        MemoryTrace trace(records);
        std::vector<TraceRun> items(512);
        std::vector<TraceRecord> ops;
        for (;;) {
            std::size_t got =
                trace.nextRuns(items.data(), items.size(), budget);
            if (got == 0)
                break;
            Count covered = 0;
            for (std::size_t i = 0; i < got; ++i) {
                covered += items[i].nonMemBefore + Count{1};
                for (std::uint32_t k = 0; k < items[i].nonMemBefore; ++k)
                    ops.push_back(TraceRecord::nonMem());
                ops.push_back(items[i].rec);
            }
            Count left = records.size() - (ops.size() - covered);
            ASSERT_EQ(covered, std::min(budget, left)) << budget;
        }
        ASSERT_EQ(ops.size(), records.size()) << budget;
        for (std::size_t i = 0; i < records.size(); ++i)
            ASSERT_EQ(ops[i].op, records[i].op) << budget << " " << i;
    }
}

/** Expand run items into records, each run's pcs continued by 4
 *  from the record before it; @p own_records collects the stream
 *  index of every item's own record. */
std::vector<TraceRecord>
expandWithPcs(TraceSource &source, std::size_t batch_items,
              std::vector<std::size_t> &own_records)
{
    std::vector<TraceRecord> out;
    std::vector<TraceRun> items(batch_items);
    Addr pc = 0;
    while (std::size_t got = source.nextRuns(items.data(), batch_items)) {
        for (std::size_t i = 0; i < got; ++i) {
            for (std::uint32_t k = 0; k < items[i].nonMemBefore; ++k)
                out.push_back(TraceRecord::nonMem(pc += 4));
            own_records.push_back(out.size());
            out.push_back(items[i].rec);
            pc = items[i].rec.pc;
        }
    }
    return out;
}

TEST(TraceSource, GeneratorLoopWrapsAndJumpsCutRuns)
{
    // A 16-instruction inner loop wraps every 16 records, and jumps
    // between loops are frequent: the fold must cut a run at both,
    // so the items rebuild every record, pc included.
    BenchmarkProfile profile = spec92::profile("compress");
    profile.codeLoop = 64;
    profile.codeJumpProb = 0.02;
    constexpr Count kLength = 20'000;
    SyntheticSource flat(profile, kLength, 7);
    std::vector<TraceRecord> records =
        MemoryTrace::capture(flat).records();

    SyntheticSource generator(profile, kLength, 7);
    std::vector<std::size_t> own;
    EXPECT_EQ(expandWithPcs(generator, 100, own), records);
    int wraps = 0;
    int jumps = 0;
    for (std::size_t i = 1; i < records.size(); ++i) {
        Addr next = records[i - 1].pc + 4;
        if (records[i].op != Op::NonMem || records[i].pc == next)
            continue;
        (records[i].pc == next - profile.codeLoop ? wraps : jumps) += 1;
        EXPECT_TRUE(std::binary_search(own.begin(), own.end(), i))
            << "record " << i << " jumps but joined a run";
    }
    EXPECT_GT(wraps, 100);
    EXPECT_GT(jumps, 20);

    // The adapters fold the same way.
    SyntheticSource inner(profile, kLength, 7);
    TruncatedSource truncated(inner, kLength / 2);
    std::vector<TraceRecord> half(records.begin(),
                                  records.begin() + kLength / 2);
    EXPECT_EQ(expandWithPcs(truncated, 100, own), half);
    SyntheticSource first(profile, kLength / 2, 7);
    MemoryTrace second(half);
    ConcatSource concat({&first, &second});
    std::vector<TraceRecord> twice = half;
    twice.insert(twice.end(), half.begin(), half.end());
    EXPECT_EQ(expandWithPcs(concat, 100, own), twice);
}

} // namespace
} // namespace wbsim
