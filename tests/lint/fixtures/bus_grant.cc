/**
 * wbsim-lint fixture: the bus-grant path shape. The arbiter's grant
 * bookkeeping is WBSIM_HOT — per-core stats live in vectors sized at
 * construction and are updated in place (clean), and lagging cores
 * are advanced through std::function scheduler hooks (the blessed
 * indirection, clean). The seeded violations are the two easy ways
 * to regress it: appending a per-grant log record, and growing the
 * stats store inside the grant.
 */

#include <functional>
#include <vector>

#define HOT [[clang::annotate("wbsim::hot")]]

namespace fixture
{

struct GrantStats
{
    unsigned long grants = 0;
    unsigned long busyCycles = 0;
};

struct GrantLog
{
    unsigned core = 0;
    unsigned long start = 0;
};

struct Arbiter
{
    std::vector<GrantStats> stats;   // sized at construction
    std::vector<GrantLog> log;
    std::function<bool(unsigned)> stepOne;

    /** In-place bookkeeping on pre-sized slots: clean. */
    HOT unsigned long
    bookGrant(unsigned core, unsigned long start,
              unsigned long duration)
    {
        GrantStats &s = stats[core];
        s.grants += 1;
        s.busyCycles += duration;
        return start + duration;
    }

    /** Hook dispatch through std::function — the blessed hot-path
     *  indirection (the L2WriteHook pattern): clean. */
    HOT bool
    advanceCore(unsigned core)
    {
        return stepOne(core);
    }

    /** Appending a log record per grant: allocates on growth. */
    HOT unsigned long
    bookGrantLogged(unsigned core, unsigned long start,
                    unsigned long duration)
    {
        stats[core].grants += 1;
        log.push_back({core, start}); // EXPECT: WL-HOT-ALLOC
        return start + duration;
    }

    /** Growing the stats store lazily inside the grant. */
    HOT void
    ensureCore(unsigned core)
    {
        if (core >= stats.size())
            stats.resize(core + 1); // EXPECT: WL-HOT-ALLOC
    }
};

} // namespace fixture
