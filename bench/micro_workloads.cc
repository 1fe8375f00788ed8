/**
 * @file
 * Google-benchmark measurement of the synthetic workload generators:
 * records one at a time, run items from the generator's native fold
 * and from the default fold of its record batches, and a whole
 * materialized-trace build. Each runs on espresso, tomcatv and gmtry;
 * items_per_second counts records.
 */

#include <benchmark/benchmark.h>

#include "trace/materialized_trace.hh"
#include "workloads/generator.hh"
#include "workloads/spec92.hh"

namespace
{

using namespace wbsim;

/** Run items pulled per nextRuns() call (Simulator::kFeedBatch). */
constexpr std::size_t kItems = 256;

const std::string &
profileName(benchmark::State &state)
{
    static const std::vector<std::string> names =
        spec92::benchmarkNames();
    const std::string &name =
        names[static_cast<std::size_t>(state.range(0))];
    state.SetLabel(name);
    return name;
}

void
BM_Generate(benchmark::State &state)
{
    SyntheticSource source(spec92::profile(profileName(state)), ~Count{0},
                           1);
    TraceRecord record;
    for (auto _ : state) {
        source.next(record);
        benchmark::DoNotOptimize(record);
    }
    state.SetItemsProcessed(state.iterations());
}

/** Records covered by @p got items. */
std::int64_t
recordsIn(const TraceRun *items, std::size_t got)
{
    std::int64_t records = 0;
    for (std::size_t i = 0; i < got; ++i)
        records += items[i].nonMemBefore + 1;
    return records;
}

/** Run items, natively when @p native, else through the default
 *  fold of nextBatch() records (TraceSource::nextRuns). */
void
runItems(benchmark::State &state, bool native)
{
    SyntheticSource source(spec92::profile(profileName(state)), ~Count{0},
                           1);
    TraceRun items[kItems];
    std::int64_t records = 0;
    for (auto _ : state) {
        std::size_t got = native
            ? source.nextRuns(items, kItems)
            : source.TraceSource::nextRuns(items, kItems);
        benchmark::DoNotOptimize(items);
        benchmark::ClobberMemory();
        records += recordsIn(items, got);
    }
    state.SetItemsProcessed(records);
}

void
BM_GenerateRuns(benchmark::State &state)
{
    runItems(state, true);
}

void
BM_GenerateRunsFold(benchmark::State &state)
{
    runItems(state, false);
}

void
BM_BuildTrace(benchmark::State &state)
{
    constexpr Count kRecords = 200'000;
    const BenchmarkProfile profile = spec92::profile(profileName(state));
    for (auto _ : state) {
        SyntheticSource source(profile, kRecords, 1);
        MaterializedTrace trace = MaterializedTrace::build(source);
        benchmark::DoNotOptimize(trace.encodedBytes());
    }
    state.SetItemsProcessed(state.iterations() * kRecords);
}

// espresso / tomcatv / gmtry
BENCHMARK(BM_Generate)->Arg(0)->Arg(9)->Arg(16);
BENCHMARK(BM_GenerateRuns)->Arg(0)->Arg(9)->Arg(16);
BENCHMARK(BM_GenerateRunsFold)->Arg(0)->Arg(9)->Arg(16);
BENCHMARK(BM_BuildTrace)->Arg(0)->Arg(9)->Arg(16);

} // namespace

BENCHMARK_MAIN();
