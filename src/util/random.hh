/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The workload generators must be reproducible across runs, platforms
 * and standard-library versions, so we implement our own xorshift128+
 * generator and distribution helpers rather than relying on
 * <random> (whose distributions are not specified bit-exactly).
 *
 * The draw methods are defined inline: the synthetic workload
 * generator sits on the simulator-baseline critical path and draws
 * several values per emitted record, so a call into random.cc per
 * draw is measurable. The sequences are part of the reproducibility
 * contract and must not change.
 */

#ifndef WBSIM_UTIL_RANDOM_HH
#define WBSIM_UTIL_RANDOM_HH

#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace wbsim
{

/**
 * xorshift128+ PRNG. Small, fast, and deterministic everywhere.
 * Seeded via splitmix64 so that nearby seeds give independent
 * streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state0_;
        const std::uint64_t y = state1_;
        state0_ = y;
        x ^= x << 23;
        state1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
        return state1_ + y;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        wbsim_assert(bound != 0, "nextBelow(0)");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 *
        // bound, negligible for simulation purposes.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next())
             * static_cast<unsigned __int128>(bound)) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        wbsim_assert(lo <= hi, "nextRange with lo > hi");
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Draw an index according to a discrete weight vector.
     * Weights need not be normalised; all-zero weights return 0.
     */
    std::size_t
    nextWeighted(const std::vector<double> &weights)
    {
        const double total = weightTotal(weights);
        if (total <= 0.0)
            return 0;
        double draw = nextDouble() * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            draw -= weights[i];
            if (draw < 0.0)
                return i;
        }
        return weights.size() - 1;
    }

    /** The left-to-right weight sum nextWeighted scales draws by. */
    static double
    weightTotal(const std::vector<double> &weights)
    {
        double total = 0.0;
        for (double w : weights)
            total += w;
        return total;
    }

    /**
     * Geometric-ish burst length: 1 + number of successes of
     * repeated trials with probability @p p, capped at @p cap.
     */
    unsigned
    nextBurst(double p, unsigned cap)
    {
        unsigned length = 1;
        while (length < cap && nextBool(p))
            ++length;
        return length;
    }

    /**
     * The integer form of `nextDouble() < p`: that test passes
     * exactly when `(next() >> 11) < doubleCut(p)`, because
     * nextDouble() is (next() >> 11) * 2^-53 and p * 2^53 is exact,
     * so the cut is ceil(p * 2^53), clamped to [0, 2^53].
     */
    static std::uint64_t doubleCut(double p);

    /** nextDouble() < p for the @p cut = doubleCut(p): the same draw
     *  and answer, as one integer compare. */
    bool nextUnder(std::uint64_t cut) { return (next() >> 11) < cut; }

    /**
     * Integer cut points for nextWeighted(weights): a draw picks the
     * first index i with `(next() >> 11) < cuts[i]`, else the last
     * one. Empty when the weights total zero or less, where
     * nextWeighted draws nothing. Each floating-point step of
     * nextWeighted is monotone in the drawn integer, so bisection
     * finds every cut exactly.
     */
    static std::vector<std::uint64_t>
    weightedCuts(const std::vector<double> &weights);

    /** nextWeighted(weights) for @p cuts = weightedCuts(weights):
     *  the same draws and the same indices. */
    std::size_t
    nextWeighted(const std::vector<std::uint64_t> &cuts)
    {
        if (cuts.empty())
            return 0;
        const std::uint64_t draw = next() >> 11;
        const std::size_t last = cuts.size() - 1;
        for (std::size_t i = 0; i < last; ++i)
            if (draw < cuts[i])
                return i;
        return last;
    }

  private:
    std::uint64_t state0_;
    std::uint64_t state1_;
};

/**
 * Rng::nextBool(p) for a fixed p, precomputed: the same draws and
 * the same answers. A p outside (0, 1) draws nothing, as nextBool
 * does; inside it the draw is one integer compare (Rng::doubleCut).
 */
class Bernoulli
{
  public:
    Bernoulli() = default;
    explicit Bernoulli(double p)
        : cut_(p >= 1.0 ? 1 : Rng::doubleCut(p)),
          draws_(p > 0.0 && p < 1.0)
    {
    }

    bool
    operator()(Rng &rng) const
    {
        return draws_ ? rng.nextUnder(cut_) : cut_ != 0;
    }

    /** Rng::nextBurst(p, cap) with this trial. */
    unsigned
    burst(Rng &rng, unsigned cap) const
    {
        unsigned length = 1;
        while (length < cap && (*this)(rng))
            ++length;
        return length;
    }

  private:
    std::uint64_t cut_ = 0;
    bool draws_ = false;
};

/** splitmix64 step; used for seed expansion and hashing. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Hash two 64-bit values into one (for derived seeds). */
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

} // namespace wbsim

#endif // WBSIM_UTIL_RANDOM_HH
