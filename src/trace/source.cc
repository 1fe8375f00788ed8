#include "trace/source.hh"

#include <algorithm>
#include <optional>

namespace wbsim
{

namespace
{

/// Records pulled per nextBatch() call while folding run items.
constexpr std::size_t kFoldChunk = 256;

} // namespace

std::size_t
TraceSource::nextRuns(TraceRun *out, std::size_t max, Count budget)
{
    TraceRecord chunk[kFoldChunk];
    std::size_t produced = 0;
    std::optional<Addr> next_pc; // the previous record's pc + 4
    // Every record yields at most one item, so pulling no more
    // records than there are free slots never overflows @p out; nor
    // does pulling more than the budget allows ever cut an item.
    while (produced < max && budget > 0) {
        std::size_t want = std::min(kFoldChunk, max - produced);
        if (budget < want)
            want = static_cast<std::size_t>(budget);
        std::size_t got = nextBatch(chunk, want);
        budget -= got;
        std::uint32_t run = 0;
        for (std::size_t i = 0; i < got; ++i) {
            // A NonMem record that jumps is an item's own record.
            if (chunk[i].op == Op::NonMem && next_pc == chunk[i].pc) {
                ++run;
            } else {
                out[produced++] = TraceRun{run, chunk[i]};
                run = 0;
            }
            next_pc = chunk[i].pc + 4;
        }
        // A run the chunk cut off travels in carrier form: its last
        // record is the item's own (NonMem) record.
        if (run > 0)
            out[produced++] = TraceRun{run - 1, chunk[got - 1]};
        if (got < want)
            break;
    }
    return produced;
}

} // namespace wbsim
