/**
 * @file
 * Types shared by the store buffer (core/write_buffer.hh) and its
 * policy layer: the L2 write hook, the statistics, and the load-probe
 * and hazard results.
 */

#ifndef WBSIM_CORE_STORE_BUFFER_HH
#define WBSIM_CORE_STORE_BUFFER_HH

#include <cstdint>
#include <functional>

#include "core/config.hh"
#include "core/stall_stats.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace wbsim
{

/**
 * Performs the functional L2 write for one buffer entry and returns
 * how long the L2 port is held.
 *
 * @param base entry base address.
 * @param valid_words number of valid words in the entry.
 * @param total_words entry capacity in words.
 * @param start cycle at which the transfer begins.
 * @return port occupancy in cycles (>= 1).
 */
using L2WriteHook = std::function<Cycle(Addr base, unsigned valid_words,
                                        unsigned total_words,
                                        Cycle start)>;

/** Statistics common to both store-buffer organisations. */
struct StoreBufferStats
{
    Count stores = 0;       //!< stores presented
    Count merges = 0;       //!< stores that coalesced into an entry
    Count allocations = 0;  //!< stores that allocated a new entry
    Count retirements = 0;  //!< autonomous entry writes to L2
    Count flushes = 0;      //!< hazard-forced entry writes to L2
    Count hazards = 0;      //!< load misses that hit an active block
    Count wbServedLoads = 0; //!< loads served directly (read-from-WB)
    Count wordsWritten = 0; //!< valid words transferred to L2
    Count entriesWritten = 0; //!< entries transferred to L2
    /** Buffer occupancy observed at each store. */
    stats::Histogram occupancy{33};

    /** The paper's Table 5 "WB hit rate": merges / stores. */
    double mergeRate() const;
    /** Mean valid words per entry written to L2 (coalescing gain). */
    double wordsPerWriteback() const;
    /** Zero all counters (for warmup support). */
    void reset();
};

/** Result of probing the buffer for an L1 load miss. */
struct LoadProbe
{
    /** Some active entry overlaps the load's L1 line: a hazard. */
    bool blockHit = false;
    /** Every word the load needs is valid in the buffer. */
    bool wordHit = false;
    /** FIFO sequence number of the newest matching entry (write
     *  buffer only; used to bound flush-partial). */
    std::uint64_t hitSeq = 0;
};

/** Outcome of hazard handling. */
struct HazardResult
{
    /** Cycle at which the buffer-side handling completes and the
     *  load may proceed. */
    Cycle done = 0;
    /** True if the load was served from the buffer and needs no L2
     *  access and no L1 fill. */
    bool servedFromBuffer = false;
};

} // namespace wbsim

#endif // WBSIM_CORE_STORE_BUFFER_HH
