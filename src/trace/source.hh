/**
 * @file
 * Abstract instruction-stream source.
 *
 * Simulator runs pull TraceRecords one at a time; a source is either
 * a synthetic workload generator, an in-memory trace, or a trace
 * file reader. Sources are single-pass but restartable via reset().
 * Batch consumers pull flat record batches (nextBatch) or run items
 * (nextRuns), which fold runs of plain NonMem records into a count.
 */

#ifndef WBSIM_TRACE_SOURCE_HH
#define WBSIM_TRACE_SOURCE_HH

#include <cstddef>
#include <string>

#include "trace/record.hh"

namespace wbsim
{

/**
 * One run item: a run of plain non-memory instructions followed by
 * one explicit record. This is a materialized trace's native shape
 * (its encoder folds NonMem runs into a prefix byte on the next
 * record); TraceSource::nextRuns surfaces it for every source so
 * batch consumers can charge a run in O(1) instead of scanning
 * filler records.
 *
 * The run covers @ref nonMemBefore NonMem records whose pc values
 * are not carried: every source guarantees they are `prev.pc + 4 * k`
 * (k = 1..nonMemBefore, prev = the record just before the run), so a
 * consumer that needs fetch addresses continues them from the
 * previous record. A NonMem record that does not continue its
 * predecessor by 4 is an item's own record. A NonMem run with no
 * following record in reach decodes as an item whose `rec` is itself
 * a NonMem record (the carrier form).
 */
struct TraceRun
{
    /** NonMem records preceding (and not including) rec. */
    std::uint32_t nonMemBefore = 0;
    TraceRecord rec;
};

/** A restartable stream of retired-instruction records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Fetch the next record.
     * @return false at end of stream (record untouched).
     */
    virtual bool next(TraceRecord &record) = 0;

    /**
     * Fetch up to @p max records into @p out. The simulator's run
     * loop consumes batches so the per-record cost of a source is a
     * flat copy/decode, not a virtual call; sources with cheap bulk
     * access (in-memory and materialized traces) override this.
     * @return number of records delivered; < max only at end of
     *         stream.
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }

    /** nextRuns() budget meaning "no record limit". */
    static constexpr Count kNoBudget = ~Count{0};

    /**
     * Fetch up to @p max run items (see TraceRun) covering at most
     * @p budget of the next records of the stream. An item that
     * would cross the budget is cut exactly there: the records
     * within it travel as a carrier item, and the rest of its run
     * starts the next call. The default folds nextBatch() records:
     * a plain NonMem record (size and address 0) joins the pending
     * run only when its pc is the previous record's pc + 4 and that
     * record came from the same call, so the first NonMem record of
     * a call is always an item's own record and the fold keeps no
     * state between calls; a run cut by a fold chunk travels in
     * carrier form. Sources with a native
     * run encoding (materialized traces) or a cheaper native fold
     * (the synthetic generator) override this.
     * @return items produced; 0 only at end of stream or when
     *         @p budget or @p max is 0.
     */
    virtual std::size_t nextRuns(TraceRun *out, std::size_t max,
                                 Count budget = kNoBudget);

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** Human-readable identity for reports. */
    virtual std::string name() const = 0;
};

} // namespace wbsim

#endif // WBSIM_TRACE_SOURCE_HH
