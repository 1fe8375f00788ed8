/**
 * @file
 * Integration tests asserting the paper's headline findings hold in
 * this reproduction (DESIGN.md §1). Each test runs real workload
 * models through full machine configurations and checks the *shape*
 * of the result - who wins, what rises, what falls.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "workloads/spec92.hh"

namespace wbsim
{
namespace
{

constexpr Count kInstructions = 200'000;
constexpr Count kWarmup = 100'000;

SimResults
run(const std::string &benchmark, const MachineConfig &machine)
{
    return runOne(spec92::profile(benchmark), machine, kInstructions,
                  1, kWarmup);
}

/** Benchmarks with meaningful store traffic for trend checks. */
const std::vector<std::string> kTrendBenchmarks = {
    "compress", "li", "fpppp", "wave5", "fft"};

TEST(PaperTrends, Figure4DeeperBuffersKillBufferFullStalls)
{
    for (const std::string &benchmark : kTrendBenchmarks) {
        SCOPED_TRACE(benchmark);
        MachineConfig shallow = figures::baselineMachine();
        shallow.writeBuffer.depth = 2;
        MachineConfig deep = figures::baselineMachine();
        deep.writeBuffer.depth = 12;

        SimResults at2 = run(benchmark, shallow);
        SimResults at12 = run(benchmark, deep);
        EXPECT_GT(at2.pctBufferFull(), at12.pctBufferFull());
        // The paper's own exception: wave5 is the last to drop below
        // the 0.2% level (it needs 10 entries; §3.2).
        EXPECT_LT(at12.pctBufferFull(), 0.5)
            << "12 entries should essentially eliminate overflow";
        // The small countervailing rises (§3.2).
        EXPECT_GE(at12.pctLoadHazard() + 0.05, at2.pctLoadHazard());
    }
}

TEST(PaperTrends, Figure5LazierRetirementTradesRForL)
{
    for (const std::string &benchmark : kTrendBenchmarks) {
        SCOPED_TRACE(benchmark);
        MachineConfig eager = figures::baselinePlusMachine();
        MachineConfig lazy = figures::baselinePlusMachine();
        lazy.writeBuffer.highWaterMark = 10;

        SimResults at2 = run(benchmark, eager);
        SimResults at10 = run(benchmark, lazy);
        EXPECT_LT(at10.pctL2ReadAccess(), at2.pctL2ReadAccess() + 0.01)
            << "lazier retirement coalesces more: less L2 contention";
        EXPECT_GT(at10.pctLoadHazard(), at2.pctLoadHazard())
            << "lazier retirement raises load-hazard stalls";
        // Under flush-full the hazard rise dominates (§3.3).
        EXPECT_GT(at10.pctTotalStalls(), at2.pctTotalStalls());
    }
}

TEST(PaperTrends, Figure5LazyRetirementCoalescesMore)
{
    for (const std::string &benchmark : kTrendBenchmarks) {
        SCOPED_TRACE(benchmark);
        MachineConfig eager = figures::baselinePlusMachine();
        MachineConfig lazy = figures::baselinePlusMachine();
        lazy.writeBuffer.highWaterMark = 8;
        lazy.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;

        SimResults at2 = run(benchmark, eager);
        SimResults at8 = run(benchmark, lazy);
        double eager_words = double(at2.wbWordsWritten)
            / double(at2.wbEntriesWritten);
        double lazy_words = double(at8.wbWordsWritten)
            / double(at8.wbEntriesWritten);
        EXPECT_GT(lazy_words, eager_words)
            << "entries that linger coalesce more words";
    }
}

TEST(PaperTrends, Figures6And7PrecisionCutsHazardStalls)
{
    for (const std::string &benchmark : kTrendBenchmarks) {
        SCOPED_TRACE(benchmark);
        MachineConfig lazy = figures::baselinePlusMachine();
        lazy.writeBuffer.highWaterMark = 10;

        auto with = [&](LoadHazardPolicy policy) {
            MachineConfig machine = lazy;
            machine.writeBuffer.hazardPolicy = policy;
            return run(benchmark, machine);
        };
        SimResults full = with(LoadHazardPolicy::FlushFull);
        SimResults partial = with(LoadHazardPolicy::FlushPartial);
        SimResults item = with(LoadHazardPolicy::FlushItemOnly);
        SimResults read = with(LoadHazardPolicy::ReadFromWB);

        // Increasing precision monotonically cuts hazard stalls...
        EXPECT_LE(partial.pctLoadHazard(),
                  full.pctLoadHazard() + 0.01);
        EXPECT_LE(item.pctLoadHazard(),
                  partial.pctLoadHazard() + 0.01);
        EXPECT_DOUBLE_EQ(read.pctLoadHazard(), 0.0)
            << "read-from-WB eliminates load-hazard stalls";
        // ...while L2 contention rises (unflushed blocks retire).
        EXPECT_GE(read.pctL2ReadAccess() + 0.05,
                  full.pctL2ReadAccess());
    }
}

TEST(PaperTrends, Figure7ReadFromWbWithLazyRetirementWins)
{
    // §3.4 conclusion: 12-deep, retire-at-8, read-from-WB is the
    // best configuration so far - better than baseline+.
    double read_total = 0.0, baseline_total = 0.0, lazy_full = 0.0;
    for (const std::string &benchmark : kTrendBenchmarks) {
        MachineConfig best = figures::baselinePlusMachine();
        best.writeBuffer.highWaterMark = 8;
        best.writeBuffer.hazardPolicy = LoadHazardPolicy::ReadFromWB;
        MachineConfig lazy = figures::baselinePlusMachine();
        lazy.writeBuffer.highWaterMark = 8;

        read_total += run(benchmark, best).pctTotalStalls();
        baseline_total +=
            run(benchmark, figures::baselinePlusMachine())
                .pctTotalStalls();
        lazy_full += run(benchmark, lazy).pctTotalStalls();
    }
    EXPECT_LT(read_total, baseline_total);
    EXPECT_LT(read_total, lazy_full);
    // And with flush-full, lazy retirement is WORSE than eager.
    EXPECT_GT(lazy_full, baseline_total);
}

TEST(PaperTrends, HeadroomMattersMoreThanDepth)
{
    // §3.3: retire-at-10 in a 12-deep buffer (headroom 2) overflows
    // where retire-at-8 (headroom 4) does not.
    double headroom2 = 0.0, headroom4 = 0.0;
    for (const std::string &benchmark : kTrendBenchmarks) {
        MachineConfig tight = figures::baselinePlusMachine();
        tight.writeBuffer.highWaterMark = 10;
        MachineConfig roomy = figures::baselinePlusMachine();
        roomy.writeBuffer.highWaterMark = 8;
        headroom2 += run(benchmark, tight).pctBufferFull();
        headroom4 += run(benchmark, roomy).pctBufferFull();
    }
    EXPECT_GT(headroom2, headroom4);
}

TEST(PaperTrends, Figure10LargerL1CutsReadAccessStalls)
{
    for (const char *benchmark : {"compress", "su2cor"}) {
        SCOPED_TRACE(benchmark);
        MachineConfig small = figures::baselineMachine();
        MachineConfig big = figures::baselineMachine();
        big.l1d.sizeBytes = 32 * 1024;
        SimResults at8k = run(benchmark, small);
        SimResults at32k = run(benchmark, big);
        EXPECT_LT(at32k.pctL2ReadAccess(), at8k.pctL2ReadAccess())
            << "fewer misses, fewer contention stalls (§4.1)";
    }
}

TEST(PaperTrends, Figure11L2LatencyIsTheStrongestKnob)
{
    for (const std::string &benchmark : kTrendBenchmarks) {
        SCOPED_TRACE(benchmark);
        MachineConfig fast = figures::baselineMachine();
        fast.l2Latency = 3;
        MachineConfig slow = figures::baselineMachine();
        slow.l2Latency = 10;
        SimResults at3 = run(benchmark, fast);
        SimResults at10 = run(benchmark, slow);
        EXPECT_GT(at10.pctTotalStalls(), 2.0 * at3.pctTotalStalls())
            << "stalls grow dramatically with L2 latency (§4.2)";
    }
}

TEST(PaperTrends, Figure3NasaKernelsShape)
{
    // §3.1: the NASA kernels' stalls are dominated by L2-read-access
    // contention, with almost no buffer-full stalls.
    for (const char *benchmark : {"cholsky", "gmtry"}) {
        SCOPED_TRACE(benchmark);
        SimResults r = run(benchmark, figures::baselineMachine());
        EXPECT_GT(r.pctL2ReadAccess(), 4.0);
        EXPECT_LT(r.pctBufferFull(), 2.0);
        EXPECT_GT(r.pctTotalStalls(), 5.0)
            << "the kernels are among the worst stall sufferers";
    }
}

TEST(PaperTrends, Figure3ScatteredStoresCauseBufferFull)
{
    // §3.1: mdljsp2/mdljdp2's poor write-buffer locality makes
    // buffer-full the dominant category.
    for (const char *benchmark : {"mdljsp2", "mdljdp2"}) {
        SCOPED_TRACE(benchmark);
        SimResults r = run(benchmark, figures::baselineMachine());
        EXPECT_GT(r.pctBufferFull(), r.pctL2ReadAccess());
        EXPECT_GT(r.pctBufferFull(), r.pctLoadHazard());
    }
}

TEST(PaperTrends, UltraSparcPriorityCutsOverflowAtReadCost)
{
    MachineConfig bypass = figures::baselineMachine();
    MachineConfig priority = figures::baselineMachine();
    priority.writeBuffer.writePriorityThreshold = 3;
    double bypass_full = 0, priority_full = 0;
    double bypass_read = 0, priority_read = 0;
    for (const std::string &benchmark : kTrendBenchmarks) {
        SimResults a = run(benchmark, bypass);
        SimResults b = run(benchmark, priority);
        bypass_full += a.pctBufferFull();
        priority_full += b.pctBufferFull();
        bypass_read += a.pctL2ReadAccess();
        priority_read += b.pctL2ReadAccess();
    }
    EXPECT_LT(priority_full, bypass_full);
    EXPECT_GT(priority_read, bypass_read);
}

TEST(PaperTrends, FixedRateLosesToOccupancy)
{
    // §2.2: occupancy-based policies "should always perform better".
    double occupancy_total = 0, fixed_total = 0;
    for (const std::string &benchmark : kTrendBenchmarks) {
        MachineConfig occ = figures::baselineMachine();
        occ.writeBuffer.depth = 8;
        MachineConfig fixed = occ;
        fixed.writeBuffer.retirementMode = RetirementMode::FixedRate;
        fixed.writeBuffer.fixedRatePeriod = 32;
        occupancy_total += run(benchmark, occ).pctTotalStalls();
        fixed_total += run(benchmark, fixed).pctTotalStalls();
    }
    EXPECT_LT(occupancy_total, fixed_total);
}

TEST(PaperTrends, NonCoalescingIncreasesTraffic)
{
    MachineConfig mono = figures::baselineMachine();
    mono.writeBuffer.coalescing = false;
    mono.writeBuffer.entryBytes = 8;
    mono.writeBuffer.wordBytes = 4;
    for (const char *benchmark : {"sc", "fft"}) {
        SCOPED_TRACE(benchmark);
        SimResults coalescing =
            run(benchmark, figures::baselineMachine());
        SimResults one_word = run(benchmark, mono);
        EXPECT_GT(double(one_word.wbEntriesWritten),
                  1.8 * double(coalescing.wbEntriesWritten))
            << "coalescing cuts L2 write traffic substantially";
        EXPECT_GT(one_word.pctTotalStalls(),
                  coalescing.pctTotalStalls());
    }
}

TEST(PaperTrends, NarrowDatapathRaisesAllStalls)
{
    MachineConfig narrow = figures::baselineMachine();
    narrow.l2DatapathBytes = 8;
    double wide_total = 0, narrow_total = 0;
    for (const std::string &benchmark : kTrendBenchmarks) {
        wide_total +=
            run(benchmark, figures::baselineMachine()).pctTotalStalls();
        narrow_total += run(benchmark, narrow).pctTotalStalls();
    }
    EXPECT_GT(narrow_total, wide_total);
}

/** Total stall share of every variant of @p experiment for
 *  @p benchmark, at the reproduction gate's 100k/50k length. */
std::vector<double>
stallShares(const Experiment &experiment, const std::string &benchmark)
{
    std::vector<double> shares;
    for (const ConfigVariant &variant : experiment.variants)
        shares.push_back(runOne(spec92::profile(benchmark),
                                variant.machine, 100'000, 1, 50'000)
                             .pctTotalStalls());
    return shares;
}

TEST(PaperTrends, Figures8And9MixedVerdictOnLazierRetirement)
{
    // Headroom pinned at 6: under flush-partial, lazier retirement
    // than retire-at-2 loses to baseline+, but flush-item-only
    // tolerates retire-at-4. Measured (T%, baseline+ / retire-at-4):
    // li 6.73 / 9.23 (fig08) and 6.01 (fig09); fft 10.64 / 12.82
    // and 10.36.
    ASSERT_EQ("baseline+", figures::figure08().variants[0].label);
    ASSERT_EQ("retire-at-4", figures::figure08().variants[2].label);
    ASSERT_EQ("retire-at-4", figures::figure09().variants[2].label);
    for (const char *benchmark : {"li", "fft"}) {
        SCOPED_TRACE(benchmark);
        std::vector<double> partial =
            stallShares(figures::figure08(), benchmark);
        std::vector<double> item =
            stallShares(figures::figure09(), benchmark);
        ASSERT_EQ(partial.size(), 4u);
        ASSERT_EQ(item.size(), 4u);
        EXPECT_DOUBLE_EQ(partial[0], item[0]) << "one baseline+";
        EXPECT_GT(partial[2], partial[0]) << "fig08 retire-at-4";
        EXPECT_LT(item[2], item[0]) << "fig09 retire-at-4";
    }
}

TEST(PaperTrends, Figure12SmallerL2LowersStallShare)
{
    // Finding 5: L2-miss time swamps the write buffer's stalls and
    // misses give the buffer free retirement slots, so the stall
    // *share* falls from the perfect L2 to 1M, 512K and 128K.
    // Measured: compress 3.49% -> 2.90%, tomcatv 5.93% -> 3.93%.
    for (const char *benchmark : {"compress", "tomcatv"}) {
        SCOPED_TRACE(benchmark);
        std::vector<double> shares =
            stallShares(figures::figure12(), benchmark);
        ASSERT_EQ(shares.size(), 4u);
        for (std::size_t v = 1; v < shares.size(); ++v)
            EXPECT_LE(shares[v], shares[v - 1]) << "variant " << v;
        EXPECT_LT(shares.back(), 0.9 * shares.front());
    }
}

TEST(PaperTrends, Figure13SlowerMemoryLowersStallShare)
{
    // Finding 5 again, along memory latency with a 1M L2: tomcatv
    // goes 5.93% (perfect L2) -> 4.26% (mem 25) -> 3.39% (mem 50).
    for (const char *benchmark : {"compress", "tomcatv"}) {
        SCOPED_TRACE(benchmark);
        std::vector<double> shares =
            stallShares(figures::figure13(), benchmark);
        ASSERT_EQ(shares.size(), 3u);
        EXPECT_LT(shares[1], shares[0]);
        EXPECT_LT(shares[2], shares[1]);
        EXPECT_LT(shares[2], 0.8 * shares[0]);
    }
}

} // namespace
} // namespace wbsim
