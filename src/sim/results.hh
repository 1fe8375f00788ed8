/**
 * @file
 * SimResults: everything a run produces, in the units the paper
 * reports (stall cycles as a percentage of total execution time,
 * hit rates, traffic counts).
 */

#ifndef WBSIM_SIM_RESULTS_HH
#define WBSIM_SIM_RESULTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "core/stall_stats.hh"
#include "util/types.hh"

namespace wbsim
{

/** The object a results field sits in, in JSON document order. */
enum class ResultGroup : std::uint8_t
{
    Root, BufferFull, ReadAccess, LoadHazard, Pct, Tail,
    L1, Wb, L2, Mem, IFetch, Barrier, StoreFetch,
};

/** A ResultGroup's JSON key; the stall groups nest in "stalls". */
struct ResultGroupKey
{
    const char *key;
    bool inStalls;
};

/** Indexed by ResultGroup. */
inline constexpr ResultGroupKey kResultGroups[] = {
    {nullptr, false},       {"buffer_full", true}, {"read_access", true},
    {"load_hazard", true},  {"pct", true},         {"tail", true},
    {"l1", false},          {"wb", false},         {"l2", false},
    {"mem", false},         {"ifetch", false},     {"barrier", false},
    {"store_fetch", false},
};

/** How MultiCoreResults::aggregate() combines a field over cores. */
enum class Combine : std::uint8_t
{
    Sum,
    Max,     //!< the slowest clock, the longest episode
    Mean,
    First,   //!< core 0's (the labels)
    Derived, //!< a getter, recomputed from the combined fields
};

/** Aggregated outcome of one simulation run. */
struct SimResults
{
    std::string workload;
    std::string machine;

    Count instructions = 0;
    Count cycles = 0;
    Count loads = 0;
    Count stores = 0;

    /** The paper's three stall categories (Table 3). */
    StallStats stalls;

    /** @name L1 data cache. */
    /// @{
    Count l1LoadHits = 0;
    Count l1LoadMisses = 0;
    Count l1StoreHits = 0;
    Count l1StoreMisses = 0;
    /// @}

    /** @name Write buffer. */
    /// @{
    Count wbMerges = 0;
    Count wbAllocations = 0;
    Count wbRetirements = 0;
    Count wbFlushes = 0;
    Count wbHazards = 0;
    Count wbServedLoads = 0;
    Count wbWordsWritten = 0;
    Count wbEntriesWritten = 0;
    double wbMeanOccupancy = 0.0;
    /// @}

    /** @name L2 and memory. */
    /// @{
    Count l2ReadHits = 0;
    Count l2ReadMisses = 0;
    Count l2WriteHits = 0;
    Count l2WriteMisses = 0;
    Count memReads = 0;
    Count memWriteBacks = 0;
    /// @}

    /** @name Real-I-cache extension (§4.3). */
    /// @{
    Count ifetchMisses = 0;
    Count l2IFetchStallCycles = 0;
    /// @}

    /** @name Memory-barrier extension (§2.2 ordering instructions). */
    /// @{
    Count barriers = 0;
    Count barrierStallCycles = 0;
    /// @}

    /** @name Write-allocate L1 extension (ablation A14). */
    /// @{
    Count storeFetches = 0;
    Count storeFetchCycles = 0;
    /// @}

    /** L1 load hit rate (Table 5). */
    double l1LoadHitRate() const;
    /** Write buffer merge ("hit") rate over stores (Table 5). */
    double wbMergeRate() const;
    /** L2 hit rate over demand reads (Table 7). */
    double l2ReadHitRate() const;

    /** @name Stall cycles as % of total time (the figures' y-axis). */
    /// @{
    double pctBufferFull() const;
    double pctL2ReadAccess() const;
    double pctLoadHazard() const;
    double pctTotalStalls() const;
    /// @}

    /** @name Burstiness (tail) measures. Two runs with equal mean
     *  CPI can stall in very different rhythms; these summarize how
     *  clustered the stalls were. */
    /// @{
    /** Stall episodes (all three categories) per 10k cycles. */
    double stallEpisodesPer10k() const;
    /** Longest single stall episode in any category, in cycles. */
    Count maxStallEpisode() const { return stalls.maxEpisode(); }
    /// @}

    /**
     * Every field once, in CSV column order, as visit(group, key,
     * csv, combine, access): its JSON object and key, its CSV column
     * (nullptr: none), how aggregate() combines it over cores, and
     * the member that stores it or the getter that derives it. The
     * JSON and CSV codecs and aggregate() walk this list. The three
     * max-episode columns follow all six stall cycle and event
     * columns, unlike the JSON nesting.
     */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        using enum ResultGroup;
        using enum Combine;
        using R = SimResults;
        using S = StallStats;
        visit(Root, "workload", "workload", First, &R::workload);
        visit(Root, "machine", "machine", First, &R::machine);
        visit(Root, "instructions", "instructions", Sum, &R::instructions);
        visit(Root, "cycles", "cycles", Max, &R::cycles);
        visit(Root, "loads", "loads", Sum, &R::loads);
        visit(Root, "stores", "stores", Sum, &R::stores);
        visit(BufferFull, "cycles", "buffer_full_cycles", Sum,
              &S::bufferFullCycles);
        visit(BufferFull, "events", "buffer_full_events", Sum,
              &S::bufferFullEvents);
        visit(ReadAccess, "cycles", "read_access_cycles", Sum,
              &S::l2ReadAccessCycles);
        visit(ReadAccess, "events", "read_access_events", Sum,
              &S::l2ReadAccessEvents);
        visit(LoadHazard, "cycles", "load_hazard_cycles", Sum,
              &S::loadHazardCycles);
        visit(LoadHazard, "events", "load_hazard_events", Sum,
              &S::loadHazardEvents);
        visit(BufferFull, "max_episode", "buffer_full_max_episode", Max,
              &S::bufferFullMaxEpisode);
        visit(ReadAccess, "max_episode", "read_access_max_episode", Max,
              &S::l2ReadAccessMaxEpisode);
        visit(LoadHazard, "max_episode", "load_hazard_max_episode", Max,
              &S::loadHazardMaxEpisode);
        visit(Pct, "buffer_full", "pct_buffer_full", Derived,
              &R::pctBufferFull);
        visit(Pct, "read_access", "pct_read_access", Derived,
              &R::pctL2ReadAccess);
        visit(Pct, "load_hazard", "pct_load_hazard", Derived,
              &R::pctLoadHazard);
        visit(Pct, "total", "pct_total", Derived, &R::pctTotalStalls);
        visit(Tail, "episodes_per_10k", "episodes_per_10k", Derived,
              &R::stallEpisodesPer10k);
        visit(Tail, "max_episode", "max_episode", Derived,
              &R::maxStallEpisode);
        visit(L1, "load_hits", "l1_load_hits", Sum, &R::l1LoadHits);
        visit(L1, "load_misses", "l1_load_misses", Sum, &R::l1LoadMisses);
        visit(L1, "store_hits", "l1_store_hits", Sum, &R::l1StoreHits);
        visit(L1, "store_misses", "l1_store_misses", Sum,
              &R::l1StoreMisses);
        visit(L1, "load_hit_rate", nullptr, Derived, &R::l1LoadHitRate);
        visit(Wb, "merges", "wb_merges", Sum, &R::wbMerges);
        visit(Wb, "allocations", "wb_allocations", Sum, &R::wbAllocations);
        visit(Wb, "retirements", "wb_retirements", Sum, &R::wbRetirements);
        visit(Wb, "flushes", "wb_flushes", Sum, &R::wbFlushes);
        visit(Wb, "hazards", "wb_hazards", Sum, &R::wbHazards);
        visit(Wb, "served_loads", "wb_served_loads", Sum,
              &R::wbServedLoads);
        visit(Wb, "words_written", "wb_words_written", Sum,
              &R::wbWordsWritten);
        visit(Wb, "entries_written", "wb_entries_written", Sum,
              &R::wbEntriesWritten);
        visit(Wb, "mean_occupancy", "wb_mean_occupancy", Mean,
              &R::wbMeanOccupancy);
        visit(Wb, "merge_rate", nullptr, Derived, &R::wbMergeRate);
        visit(L2, "read_hits", "l2_read_hits", Sum, &R::l2ReadHits);
        visit(L2, "read_misses", "l2_read_misses", Sum, &R::l2ReadMisses);
        visit(L2, "write_hits", "l2_write_hits", Sum, &R::l2WriteHits);
        visit(L2, "write_misses", "l2_write_misses", Sum,
              &R::l2WriteMisses);
        visit(L2, "read_hit_rate", nullptr, Derived, &R::l2ReadHitRate);
        visit(Mem, "reads", "mem_reads", Sum, &R::memReads);
        visit(Mem, "write_backs", "mem_write_backs", Sum,
              &R::memWriteBacks);
        visit(IFetch, "misses", "ifetch_misses", Sum, &R::ifetchMisses);
        visit(IFetch, "l2_stall_cycles", "ifetch_l2_stall_cycles", Sum,
              &R::l2IFetchStallCycles);
        visit(Barrier, "count", "barriers", Sum, &R::barriers);
        visit(Barrier, "stall_cycles", "barrier_stall_cycles", Sum,
              &R::barrierStallCycles);
        visit(StoreFetch, "count", "store_fetches", Sum, &R::storeFetches);
        visit(StoreFetch, "cycles", "store_fetch_cycles", Sum,
              &R::storeFetchCycles);
    }

    /** Exact field-by-field equality, doubles included: a run
     *  resumed from a warm-state checkpoint must reproduce the
     *  from-scratch run bit for bit, not approximately. */
    bool operator==(const SimResults &other) const = default;
};

/** A listed field's value in @p r: a stored member (of SimResults
 *  or of its stalls) by reference, a getter's result by value. */
template <typename Results, typename Access>
decltype(auto)
resultField(Results &r, Access access)
{
    if constexpr (std::is_invocable_v<Access, Results &>)
        return std::invoke(access, r);
    else
        return (r.stalls.*access);
}

} // namespace wbsim

#endif // WBSIM_SIM_RESULTS_HH
