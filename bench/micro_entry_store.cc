/**
 * @file
 * Google-benchmark microbenchmarks of the SoA EntryStore sweep
 * kernels in isolation — probe, coalescing merge-target lookup, and
 * the allocate/release eviction cycle — swept densely across the
 * paper's buffer depths (2..16 in steps of 2, covering its 2-12
 * sweep) so the kernel cost curve is visible per depth, without the
 * simulator around it.
 */

#include <benchmark/benchmark.h>

#include "core/config.hh"
#include "core/policy/entry_store.hh"

namespace
{

using namespace wbsim;

constexpr unsigned kLineBytes = 32;

WriteBufferConfig
depthConfig(unsigned depth)
{
    WriteBufferConfig config;
    config.depth = depth;
    return config;
}

/** Fill every slot with distinct line-aligned bases. */
void
fill(EntryStore &store, Addr stride)
{
    for (std::size_t i = 0; i < store.size(); ++i)
        store.allocate(static_cast<Addr>(i) * stride, 0xFFu,
                       static_cast<Cycle>(i));
}

/** Load probes against a full store; addresses sweep a region 4x the
 *  resident footprint, so the mix is mostly misses (the hot path)
 *  with periodic hits. */
void
BM_EntryProbe(benchmark::State &state)
{
    auto depth = static_cast<unsigned>(state.range(0));
    EntryStore store(depthConfig(depth), kLineBytes,
                     EntryOrder::Allocation);
    fill(store, 64);
    Addr span = static_cast<Addr>(depth) * 64 * 4;
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 32) % span;
        benchmark::DoNotOptimize(store.probeLoad(addr, 4));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryProbe)->DenseRange(2, 16, 2);

/** The coalescing path: merge-target lookup (newest-match sweep)
 *  plus the mask fold, cycling over every resident base. */
void
BM_EntryCoalesce(benchmark::State &state)
{
    auto depth = static_cast<unsigned>(state.range(0));
    EntryStore store(depthConfig(depth), kLineBytes,
                     EntryOrder::Allocation);
    fill(store, 64);
    Addr base = 0;
    for (auto _ : state) {
        base = (base + 64) % (static_cast<Addr>(depth) * 64);
        int target = store.findMergeTarget(base, -1);
        benchmark::DoNotOptimize(target);
        store.merge(static_cast<std::size_t>(target), 0x0Fu);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryCoalesce)->DenseRange(2, 16, 2);

/** The eviction cycle at steady-state occupancy: find the oldest
 *  entry (oldest-valid sweep in recency order, O(1) here), release
 *  it, and allocate a replacement. */
void
BM_EntryEvict(benchmark::State &state)
{
    auto depth = static_cast<unsigned>(state.range(0));
    EntryStore store(depthConfig(depth), kLineBytes,
                     EntryOrder::Allocation);
    fill(store, 64);
    Addr next_base = static_cast<Addr>(depth) * 64;
    Cycle t = depth;
    for (auto _ : state) {
        int victim = store.oldestBySeq();
        benchmark::DoNotOptimize(victim);
        store.release(static_cast<std::size_t>(victim));
        store.allocate(next_base, 0xFFu, ++t);
        next_base += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryEvict)->DenseRange(2, 16, 2);

} // namespace

BENCHMARK_MAIN();
