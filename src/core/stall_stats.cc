#include "core/stall_stats.hh"

#include <algorithm>

namespace wbsim
{

Count
StallStats::maxEpisode() const
{
    return std::max({bufferFullMaxEpisode, l2ReadAccessMaxEpisode,
                     loadHazardMaxEpisode});
}

} // namespace wbsim
