/**
 * @file
 * Google-benchmark microbenchmarks of the cache tag store.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "mem/cache.hh"
#include "util/random.hh"

namespace
{

using namespace wbsim;

void
BM_CacheHit(benchmark::State &state)
{
    Cache cache(CacheGeometry{8 * 1024, 32, 1}, "bench");
    for (Addr a = 0; a < 8 * 1024; a += 32)
        cache.allocate(a);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 32) % (8 * 1024);
        benchmark::DoNotOptimize(cache.access(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

void
BM_CacheHitLarge(benchmark::State &state)
{
    // A full 1 MB 4-way array (8192 sets) is far larger than a host
    // L1, and random resident lines defeat the prefetcher.
    const CacheGeometry geometry{1024 * 1024, 32, 4};
    Cache cache(geometry, "bench");
    for (Addr a = 0; a < geometry.sizeBytes; a += 32)
        cache.allocate(a);
    Rng rng(1);
    std::vector<Addr> addrs(1 << 16);
    for (Addr &addr : addrs)
        addr = rng.nextBelow(geometry.sizeBytes / 32) * 32;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLarge);

void
BM_CacheMissAllocate(benchmark::State &state)
{
    auto assoc = static_cast<std::uint64_t>(state.range(0));
    Cache cache(CacheGeometry{256 * 1024, 32, assoc}, "bench");
    Addr addr = 0;
    for (auto _ : state) {
        addr += 32; // endless stream: every access misses
        if (!cache.access(addr))
            cache.allocate(addr);
        benchmark::DoNotOptimize(addr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissAllocate)->Arg(1)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
