/**
 * @file
 * Differential test of SyntheticSource's native run items. Whatever
 * mix of next(), nextBatch() and nextRuns() calls, item caps and
 * record budgets drains a source, with a reset() in mid-stream, the
 * records it yields (run items expanded, pcs included) must be its
 * nextBatch() stream; and that stream is pinned, per profile and
 * seed, by a fingerprint taken before the generator drew its
 * Bernoulli and weighted choices as integer compares.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kLength = 20'000;
constexpr std::uint64_t kSeeds[] = {1, 7, 1009};

struct Pinned
{
    const char *name;
    std::uint64_t fingerprints[std::size(kSeeds)];
};

/** fingerprint() of each profile's 20k-record stream at kSeeds. */
constexpr Pinned kPinned[] = {
    {"espresso",
     {0x4aeca3e34f5f0c39ull, 0x23c362b8a039558eull,
      0x07e3dcb569bbd2f5ull}},
    {"compress",
     {0x7e16c6c4916823c7ull, 0xe7f1e1c8598b2738ull,
      0xc2e5680dff293e8cull}},
    {"uncompress",
     {0x9465dc15083249a8ull, 0xbd54cf19a891b558ull,
      0x092ba3763cfc2c82ull}},
    {"sc",
     {0x74e2101f75a12a08ull, 0x2e1dda9cd2cb5c97ull,
      0x79dd1fa30e7b37a3ull}},
    {"cc1",
     {0x19cc65cbfc7fcd4dull, 0x47392dfbe54b1ae4ull,
      0x792158ae8c345fd5ull}},
    {"li",
     {0x00220ab9d7d43805ull, 0xaf85393cc79dd5ddull,
      0x3e6dc7527fa50d8cull}},
    {"doduc",
     {0x79de54665e68cf67ull, 0xd604de447ccd23dbull,
      0x5ecfc9781cdedadbull}},
    {"hydro2d",
     {0x0c5763b4b21dba96ull, 0xd7f9b2d2b06bd994ull,
      0x86bf31bed036b106ull}},
    {"mdljsp2",
     {0x8e5ddb79ac41afa5ull, 0x0b1d77b0bdf35eb4ull,
      0xceb36aa77b50be77ull}},
    {"tomcatv",
     {0xd10e67f8a819f339ull, 0x48df5ebaf716e5b2ull,
      0xfb3ad80c3c6ea575ull}},
    {"fpppp",
     {0xe1baa31eaa98b462ull, 0xdbbce47bb93f2eb2ull,
      0xb2ad5e88c0d00edeull}},
    {"mdljdp2",
     {0x091daf4c9e5e83baull, 0x036c978404eef33eull,
      0xc18925f44df24aeaull}},
    {"wave5",
     {0x0746767ffa21e254ull, 0x07e69f366110edd5ull,
      0x2e0a6db4d6e2ebb3ull}},
    {"su2cor",
     {0x3ad98a5b967c138full, 0xc36d315fa9095e97ull,
      0x453104cb80381531ull}},
    {"fft",
     {0x2bcd901cc293409aull, 0x7736ea0ecea7eb2cull,
      0x6a03c22f5bdcfc27ull}},
    {"cholsky",
     {0x69aa760ea4965a06ull, 0x90027839b2d2eb76ull,
      0x33199372359aa7d6ull}},
    {"gmtry",
     {0xf2542d5aff7fa275ull, 0x300466a81c57ca1dull,
      0x010496d8de7adef2ull}},
    {"compress-barriers",
     {0xd3d0230cb5152d6eull, 0x01899a9fdb35e618ull,
      0x88f476309f241b36ull}},
};

/** The 17 SPEC92 profiles, plus one that draws barriers, jumps
 *  often, wraps a short loop and never continues a store burst (a
 *  Bernoulli that draws nothing). */
std::vector<BenchmarkProfile>
profiles()
{
    std::vector<BenchmarkProfile> all;
    for (const std::string &name : spec92::benchmarkNames())
        all.push_back(spec92::profile(name));
    BenchmarkProfile barriers = spec92::profile("compress");
    barriers.name = "compress-barriers";
    barriers.barrierFraction = 0.02;
    barriers.codeLoop = 64;
    barriers.codeJumpProb = 0.02;
    barriers.storeBurstContinue = 0.0;
    all.push_back(barriers);
    return all;
}

std::uint64_t
fnvBytes(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash = (hash ^ (value & 0xff)) * 0x100000001b3ull;
        value >>= 8;
    }
    return hash;
}

/** FNV-1a over every record's op, size, address and pc. */
std::uint64_t
fingerprint(const std::vector<TraceRecord> &records)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const TraceRecord &r : records) {
        hash = fnvBytes(hash, (std::uint64_t(r.op) << 8) | r.size);
        hash = fnvBytes(hash, r.addr);
        hash = fnvBytes(hash, r.pc);
    }
    return hash;
}

std::vector<TraceRecord>
batchStream(const BenchmarkProfile &profile, std::uint64_t seed)
{
    SyntheticSource source(profile, kLength, seed);
    std::vector<TraceRecord> records;
    TraceRecord batch[333];
    while (std::size_t got = source.nextBatch(batch, std::size(batch)))
        records.insert(records.end(), batch, batch + got);
    return records;
}

TEST(SyntheticRuns, BatchStreamIsPinned)
{
    std::vector<BenchmarkProfile> all = profiles();
    ASSERT_EQ(all.size(), std::size(kPinned));
    for (std::size_t p = 0; p < all.size(); ++p) {
        ASSERT_EQ(all[p].name, kPinned[p].name);
        for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
            std::vector<TraceRecord> records =
                batchStream(all[p], kSeeds[s]);
            ASSERT_EQ(records.size(), kLength);
            EXPECT_EQ(fingerprint(records), kPinned[p].fingerprints[s])
                << all[p].name << " seed " << kSeeds[s];
        }
    }
}

TEST(SyntheticRuns, MixedCallsExpandToTheBatchStream)
{
    std::vector<BenchmarkProfile> all = profiles();
    std::vector<TraceRun> items(64);
    TraceRecord batch[300];
    for (std::size_t p = 0; p < all.size(); ++p) {
        for (std::uint64_t seed : kSeeds) {
            SCOPED_TRACE(all[p].name + " seed " + std::to_string(seed));
            const std::vector<TraceRecord> expected =
                batchStream(all[p], seed);
            SyntheticSource source(all[p], kLength, seed);
            Rng pick(hashCombine(seed, p));
            const Count reset_at = pick.nextRange(1, kLength - 1);
            bool was_reset = false;
            std::vector<TraceRecord> seen;
            Addr pc = 0;
            Count calls = 0;
            while (!was_reset || seen.size() < kLength) {
                ASSERT_LT(++calls, 4 * kLength) << "no progress";
                if (!was_reset && seen.size() >= reset_at) {
                    ASSERT_TRUE(std::equal(seen.begin(), seen.end(),
                                           expected.begin()));
                    source.reset();
                    seen.clear();
                    pc = 0;
                    was_reset = true;
                }
                const Count left = kLength - seen.size();
                switch (pick.nextBelow(3)) {
                  case 0: {
                    TraceRecord record;
                    ASSERT_TRUE(source.next(record));
                    seen.push_back(record);
                    pc = record.pc;
                    break;
                  }
                  case 1: {
                    std::size_t max = 1 + pick.nextBelow(300);
                    std::size_t got = source.nextBatch(batch, max);
                    ASSERT_EQ(got, std::min<Count>(max, left));
                    seen.insert(seen.end(), batch, batch + got);
                    pc = seen.back().pc;
                    break;
                  }
                  case 2: {
                    std::size_t max = 1 + pick.nextBelow(items.size());
                    Count budget = pick.nextBelow(4) == 0
                        ? TraceSource::kNoBudget
                        : 1 + pick.nextBelow(600);
                    std::size_t got =
                        source.nextRuns(items.data(), max, budget);
                    ASSERT_GT(got, 0u);
                    ASSERT_LE(got, max);
                    const std::size_t before = seen.size();
                    for (std::size_t i = 0; i < got; ++i) {
                        const TraceRun &item = items[i];
                        // Only a call's last item may hold a record
                        // that could have joined its run (a carrier).
                        const Addr joins = pc + 4 * (item.nonMemBefore + 1);
                        if (i + 1 < got) {
                            EXPECT_FALSE(item.rec.op == Op::NonMem
                                         && item.rec.pc == joins)
                                << "item " << i << " of " << got;
                        }
                        for (std::uint32_t k = 0; k < item.nonMemBefore;
                             ++k)
                            seen.push_back(TraceRecord::nonMem(pc += 4));
                        seen.push_back(item.rec);
                        pc = item.rec.pc;
                    }
                    const Count covered = seen.size() - before;
                    ASSERT_LE(covered, budget);
                    if (got < max) {
                        ASSERT_EQ(covered, std::min(budget, left));
                    }
                    break;
                  }
                }
            }
            ASSERT_EQ(seen.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i)
                ASSERT_EQ(seen[i], expected[i]) << "record " << i;
            TraceRecord record;
            EXPECT_FALSE(source.next(record));
            EXPECT_EQ(source.nextRuns(items.data(), items.size()), 0u);
        }
    }
}

} // namespace
} // namespace wbsim
