/**
 * @file
 * Tests for MaterializedTrace / MaterializedCursor: the encoded
 * replay must be record-for-record identical to the source stream,
 * and seek() must land exactly where sequential decode would.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/materialized_trace.hh"
#include "trace/memory_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

std::vector<TraceRecord>
drain(TraceSource &source)
{
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (source.next(record))
        records.push_back(record);
    return records;
}

TEST(MaterializedTrace, RoundTripsSyntheticStreamExactly)
{
    BenchmarkProfile profile = spec92::profile("espresso");
    SyntheticSource reference(profile, 20'000, 7);
    std::vector<TraceRecord> expected = drain(reference);

    SyntheticSource again(profile, 20'000, 7);
    MaterializedTrace trace = MaterializedTrace::build(again);
    ASSERT_EQ(trace.size(), expected.size());
    EXPECT_EQ(trace.name(), again.name());

    MaterializedCursor cursor(trace);
    std::vector<TraceRecord> replayed = drain(cursor);
    ASSERT_EQ(replayed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(replayed[i], expected[i]) << "record " << i;
}

TEST(MaterializedTrace, EncodingIsCompact)
{
    BenchmarkProfile profile = spec92::profile("li");
    SyntheticSource source(profile, 50'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);
    // The whole point: well under sizeof(TraceRecord) per record.
    EXPECT_LT(trace.encodedBytes(),
              trace.size() * sizeof(TraceRecord) / 2);
}

TEST(MaterializedTrace, FingerprintIdentifiesContent)
{
    BenchmarkProfile profile = spec92::profile("tomcatv");
    SyntheticSource a1(profile, 10'000, 3);
    SyntheticSource a2(profile, 10'000, 3);
    SyntheticSource b(profile, 10'000, 4);
    MaterializedTrace ta1 = MaterializedTrace::build(a1);
    MaterializedTrace ta2 = MaterializedTrace::build(a2);
    MaterializedTrace tb = MaterializedTrace::build(b);
    EXPECT_EQ(ta1.fingerprint(), ta2.fingerprint());
    EXPECT_NE(ta1.fingerprint(), tb.fingerprint());
}

TEST(MaterializedTrace, BuildHonoursLimit)
{
    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource source(profile, 10'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source, 1'234);
    EXPECT_EQ(trace.size(), 1'234u);
}

TEST(MaterializedCursor, SeekMatchesSequentialDecode)
{
    BenchmarkProfile profile = spec92::profile("sc");
    SyntheticSource source(profile, 20'000, 11);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor sequential(trace);
    std::vector<TraceRecord> all = drain(sequential);

    // Probe positions straddling sync intervals (4096-record blocks)
    // plus both ends.
    const Count probes[] = {0,    1,    4'095, 4'096, 4'097,
                            8'000, 12'288, 19'999};
    for (Count p : probes) {
        MaterializedCursor cursor(trace);
        cursor.seek(p);
        EXPECT_EQ(cursor.position(), p);
        TraceRecord record;
        ASSERT_TRUE(cursor.next(record)) << "position " << p;
        EXPECT_EQ(record, all[p]) << "position " << p;
    }

    // Seeking to the end yields an exhausted cursor.
    MaterializedCursor end(trace);
    end.seek(trace.size());
    TraceRecord record;
    EXPECT_FALSE(end.next(record));
}

TEST(MaterializedCursor, NextBatchMatchesNext)
{
    BenchmarkProfile profile = spec92::profile("fft");
    SyntheticSource source(profile, 5'000, 2);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor one(trace);
    std::vector<TraceRecord> singles = drain(one);

    MaterializedCursor batched(trace);
    std::vector<TraceRecord> batches;
    TraceRecord buffer[192]; // deliberately not a divisor of 5000
    for (;;) {
        std::size_t got = batched.nextBatch(buffer, 192);
        batches.insert(batches.end(), buffer, buffer + got);
        if (got < 192)
            break;
    }
    ASSERT_EQ(batches.size(), singles.size());
    for (std::size_t i = 0; i < singles.size(); ++i)
        ASSERT_EQ(batches[i], singles[i]) << "record " << i;
}

/** Expand run items back into flat records. A run's NonMem pcs step
 *  by 4 from the pc of the record preceding the run (the decoder's
 *  last_pc), which the expansion tracks across items. */
void
expandItems(const TraceRun *items, std::size_t count, Addr &last_pc,
            std::vector<TraceRecord> &records)
{
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRun &item = items[i];
        for (std::uint32_t k = 1; k <= item.nonMemBefore; ++k)
            records.push_back(
                TraceRecord::nonMem(last_pc + 4 * static_cast<Addr>(k)));
        records.push_back(item.rec);
        last_pc = item.rec.pc;
    }
}

std::vector<TraceRecord>
expandRuns(MaterializedCursor &cursor, std::size_t batch_items)
{
    std::vector<TraceRecord> records;
    std::vector<TraceRun> items(batch_items);
    Addr last_pc = 0;
    for (;;) {
        std::size_t got = cursor.nextRuns(items.data(), batch_items);
        if (got == 0)
            break;
        expandItems(items.data(), got, last_pc, records);
    }
    return records;
}

TEST(MaterializedCursor, NextRunsExpandsToSameStream)
{
    // Profiles with very different run structure: dense NonMem runs
    // (compress), store-heavy bursts (tomcatv), and a pure-NonMem
    // tail exercising the carrier form.
    for (const char *name : {"compress", "tomcatv", "espresso"}) {
        BenchmarkProfile profile = spec92::profile(name);
        SyntheticSource source(profile, 20'000, 5);
        MaterializedTrace trace = MaterializedTrace::build(source);

        MaterializedCursor flat(trace);
        std::vector<TraceRecord> expected = drain(flat);

        // Odd item-batch size so refills land mid-stream.
        MaterializedCursor runs(trace);
        std::vector<TraceRecord> expanded = expandRuns(runs, 17);
        ASSERT_EQ(expanded.size(), expected.size()) << name;
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(expanded[i], expected[i])
                << name << " record " << i;
    }
}

TEST(MaterializedCursor, NextRunsResumesAfterRecordBatchCut)
{
    BenchmarkProfile profile = spec92::profile("compress");
    SyntheticSource source(profile, 20'000, 9);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor flat(trace);
    std::vector<TraceRecord> expected = drain(flat);

    // Interleave record batches (odd size, so they cut items mid-run)
    // with run batches; together they must still cover the stream
    // record-for-record.
    MaterializedCursor mixed(trace);
    std::vector<TraceRecord> seen;
    TraceRecord buffer[7];
    std::vector<TraceRun> items(5);
    Addr last_pc = 0;
    bool use_records = true;
    for (;;) {
        std::size_t before = seen.size();
        if (use_records) {
            std::size_t got = mixed.nextBatch(buffer, 7);
            seen.insert(seen.end(), buffer, buffer + got);
            if (got > 0)
                last_pc = buffer[got - 1].pc;
        } else {
            std::size_t got = mixed.nextRuns(items.data(), 5);
            expandItems(items.data(), got, last_pc, seen);
        }
        use_records = !use_records;
        if (seen.size() == before)
            break;
    }
    ASSERT_EQ(seen.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(seen[i], expected[i]) << "record " << i;
    EXPECT_EQ(mixed.position(), trace.size());
}

/** A hand-built stream with every item shape: runs longer than the
 *  255-record prefix (chained carriers), runs cut by the sync point
 *  at record 4096 (carrier before it), NonMem records with jumped
 *  PCs (standalone items), memory records and barriers, and a
 *  trailing run (carrier at the end). */
std::vector<TraceRecord>
budgetStream()
{
    std::vector<TraceRecord> records;
    Addr pc = 0x1000;
    Addr addr = 0x8000;
    auto run = [&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) {
            pc += 4;
            records.push_back(TraceRecord::nonMem(pc));
        }
    };
    const std::size_t runs[] = {0, 1, 2, 5, 255, 256, 257, 700, 3, 31};
    for (std::size_t round = 0; records.size() < 4'600; ++round) {
        run(runs[round % 10]);
        pc += 4;
        switch (round % 4) {
          case 0:
            records.push_back(TraceRecord::load(addr, 8, pc));
            break;
          case 1:
            addr += 0x40 * (round % 7);
            records.push_back(TraceRecord::store(addr, 4, pc));
            break;
          case 2:
            pc += 0x200; // a taken branch: a standalone NonMem item
            records.push_back(TraceRecord::nonMem(pc));
            break;
          case 3:
            records.push_back(TraceRecord::barrier(pc));
            break;
        }
    }
    run(300);
    return records;
}

TEST(MaterializedCursor, EveryRunBudgetCutsItemsExactly)
{
    std::vector<TraceRecord> expected = budgetStream();
    MemoryTrace source(expected);
    MaterializedTrace trace = MaterializedTrace::build(source);
    ASSERT_EQ(trace.size(), expected.size());
    const Count n = trace.size();

    std::vector<TraceRun> items(64);
    TraceRecord buffer[8];
    for (Count budget = 1; budget <= n; ++budget) {
        MaterializedCursor cursor(trace);
        std::vector<TraceRecord> seen;
        Addr last_pc = 0;
        // Mix budgeted item calls with small and large item caps,
        // record batches and one seek to the current position (which
        // re-decodes from the sync point, parking a cut item afresh).
        for (unsigned call = 0; seen.size() < n; ++call) {
            std::size_t before = seen.size();
            Count left = n - cursor.position();
            if (call == budget % 13)
                cursor.seek(cursor.position());
            switch (call % 3) {
              case 0:
              case 1: {
                std::size_t cap = call % 3 == 0 ? 64 : 3;
                std::size_t got =
                    cursor.nextRuns(items.data(), cap, budget);
                expandItems(items.data(), got, last_pc, seen);
                Count covered = seen.size() - before;
                ASSERT_LE(covered, budget) << "budget " << budget;
                if (got < cap) {
                    ASSERT_EQ(covered, std::min(budget, left))
                        << "budget " << budget << " call " << call;
                }
                break;
              }
              case 2: {
                std::size_t want = 1 + call % 8;
                std::size_t got = cursor.nextBatch(buffer, want);
                seen.insert(seen.end(), buffer, buffer + got);
                if (got > 0)
                    last_pc = buffer[got - 1].pc;
                break;
              }
            }
            ASSERT_EQ(cursor.position(), seen.size());
            ASSERT_TRUE(seen.size() > before || left == 0);
        }
        ASSERT_EQ(seen.size(), expected.size()) << "budget " << budget;
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(seen[i], expected[i])
                << "budget " << budget << " record " << i;
        TraceRun tail[1];
        EXPECT_EQ(cursor.nextRuns(tail, 1, budget), 0u);
    }
}

/** Hands out every record of @p inner as its own run item, so
 *  MaterializedTrace::build appends the stream one record at a
 *  time: the record-by-record encoding, for comparison. */
class PerRecordItems final : public TraceSource
{
  public:
    explicit PerRecordItems(TraceSource &inner) : inner_(inner) {}

    bool next(TraceRecord &record) override { return inner_.next(record); }

    std::size_t
    nextRuns(TraceRun *out, std::size_t max, Count budget) override
    {
        std::size_t n = 0;
        while (n < max && n < budget && inner_.next(out[n].rec))
            out[n++].nonMemBefore = 0;
        return n;
    }

    void reset() override { inner_.reset(); }
    std::string name() const override { return inner_.name(); }

  private:
    TraceSource &inner_;
};

TEST(MaterializedTrace, BuildFromRunItemsMatchesBuildFromRecords)
{
    // Native generator items, and the default fold over a record
    // stream with runs cut by sync points, the 255-record prefix and
    // jumps, must encode to exactly the record-by-record bytes, with
    // and without a limit that cuts a run.
    auto expectSameBytes = [](TraceSource &items, TraceSource &records,
                              Count limit) {
        MaterializedTrace a = MaterializedTrace::build(items, limit);
        MaterializedTrace b = MaterializedTrace::build(records, limit);
        EXPECT_EQ(a.size(), b.size());
        EXPECT_EQ(a.encodedBytes(), b.encodedBytes());
        EXPECT_EQ(a.fingerprint(), b.fingerprint());
    };
    for (const std::string &name : spec92::benchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkProfile profile = spec92::profile(name);
        for (Count limit : {Count{0}, Count{9'001}}) {
            SyntheticSource native(profile, 20'000, 5);
            SyntheticSource inner(profile, 20'000, 5);
            PerRecordItems records(inner);
            expectSameBytes(native, records, limit);
        }
    }
    std::vector<TraceRecord> stream = budgetStream();
    MemoryTrace folded(stream);
    MemoryTrace inner(stream);
    PerRecordItems records(inner);
    expectSameBytes(folded, records, 0);
}

TEST(MaterializedCursor, ResetRestartsFromRecordZero)
{
    BenchmarkProfile profile = spec92::profile("li");
    SyntheticSource source(profile, 1'000, 1);
    MaterializedTrace trace = MaterializedTrace::build(source);

    MaterializedCursor cursor(trace);
    TraceRecord first;
    ASSERT_TRUE(cursor.next(first));
    TraceRecord record;
    while (cursor.next(record)) {
    }
    cursor.reset();
    EXPECT_EQ(cursor.position(), 0u);
    TraceRecord again;
    ASSERT_TRUE(cursor.next(again));
    EXPECT_EQ(again, first);
}

} // namespace
} // namespace wbsim
