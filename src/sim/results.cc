#include "sim/results.hh"

#include "util/stats.hh"

namespace wbsim
{

double
SimResults::l1LoadHitRate() const
{
    return stats::ratio(l1LoadHits, l1LoadHits + l1LoadMisses);
}

double
SimResults::wbMergeRate() const
{
    return stats::ratio(wbMerges, stores);
}

double
SimResults::l2ReadHitRate() const
{
    return stats::ratio(l2ReadHits, l2ReadHits + l2ReadMisses);
}

double
SimResults::pctBufferFull() const
{
    return stats::percent(stalls.bufferFullCycles, cycles);
}

double
SimResults::pctL2ReadAccess() const
{
    return stats::percent(stalls.l2ReadAccessCycles, cycles);
}

double
SimResults::pctLoadHazard() const
{
    return stats::percent(stalls.loadHazardCycles, cycles);
}

double
SimResults::pctTotalStalls() const
{
    return stats::percent(stalls.totalCycles(), cycles);
}

double
SimResults::stallEpisodesPer10k() const
{
    return 10000.0 * stats::ratio(stalls.totalEvents(), cycles);
}

} // namespace wbsim
