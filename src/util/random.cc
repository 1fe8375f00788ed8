#include "util/random.hh"

#include <algorithm>
#include <cmath>

namespace wbsim
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    // Mix each input through a full splitmix64 round; a single xor
    // of the raw values collides for small integers.
    std::uint64_t state = a;
    std::uint64_t mixed = splitmix64(state);
    state = mixed ^ b;
    return splitmix64(state);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    state0_ = splitmix64(s);
    state1_ = splitmix64(s);
    // A zero state would lock the generator at zero forever.
    if (state0_ == 0 && state1_ == 0)
        state1_ = 1;
}

std::uint64_t
Rng::doubleCut(double p)
{
    constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return kOne;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

std::vector<std::uint64_t>
Rng::weightedCuts(const std::vector<double> &weights)
{
    const double total = weightTotal(weights);
    std::vector<std::uint64_t> cuts;
    if (total <= 0.0)
        return cuts;
    constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
    // nextWeighted returns i once draw * total - w[0] - ... - w[i],
    // evaluated left to right in doubles, falls below zero.
    auto below = [&](std::uint64_t draw, std::size_t i) {
        double left = static_cast<double>(draw) * 0x1.0p-53 * total;
        for (std::size_t k = 0; k <= i; ++k)
            left -= weights[k];
        return left < 0.0;
    };
    std::uint64_t reach = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        // The least draw for which step i stays at or above zero.
        std::uint64_t lo = 0, hi = kOne;
        while (lo < hi) {
            std::uint64_t mid = lo + (hi - lo) / 2;
            if (below(mid, i))
                lo = mid + 1;
            else
                hi = mid;
        }
        // Index <= i when any step up to i fell below zero.
        reach = std::max(reach, lo);
        cuts.push_back(reach);
    }
    return cuts;
}

} // namespace wbsim
