/**
 * @file
 * The paper's three-way classification of write-buffer-induced
 * stalls (Table 3). Every cycle the write buffer costs the processor
 * lands in exactly one of these categories.
 */

#ifndef WBSIM_CORE_STALL_STATS_HH
#define WBSIM_CORE_STALL_STATS_HH

#include "util/types.hh"

namespace wbsim
{

/** Accumulated write-buffer-induced stall cycles and event counts. */
struct StallStats
{
    /** Store waited for a free entry (buffer full, no merge). */
    Count bufferFullCycles = 0;
    Count bufferFullEvents = 0;

    /** Load miss waited for the write buffer to release L2. */
    Count l2ReadAccessCycles = 0;
    Count l2ReadAccessEvents = 0;

    /** Load miss waited for hazard handling (flushes). */
    Count loadHazardCycles = 0;
    Count loadHazardEvents = 0;

    /** @name Tail bookkeeping: the longest single stall episode seen
     *  in each category, in cycles. Means hide bursts — two policies
     *  with equal stall totals can differ wildly in how clustered
     *  the stalls are, and the max episode is the cheapest always-on
     *  burstiness witness (histograms need an attached sink). */
    /// @{
    Count bufferFullMaxEpisode = 0;
    Count l2ReadAccessMaxEpisode = 0;
    Count loadHazardMaxEpisode = 0;
    /// @}

    /** Total write-buffer-induced stall cycles. */
    Count totalCycles() const
    {
        return bufferFullCycles + l2ReadAccessCycles + loadHazardCycles;
    }

    /** Total stall episodes across the three categories. */
    Count totalEvents() const
    {
        return bufferFullEvents + l2ReadAccessEvents + loadHazardEvents;
    }

    /** Longest single stall episode in any category. */
    Count maxEpisode() const;

    /** Exact equality (the checkpoint cross-check compares runs
     *  bit for bit). */
    bool operator==(const StallStats &other) const = default;
};

} // namespace wbsim

#endif // WBSIM_CORE_STALL_STATS_HH
