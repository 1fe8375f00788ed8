/**
 * @file
 * Lightweight statistics package: counters, ratios, distributions,
 * and a named registry for dumping.
 *
 * Modelled loosely on gem5's Stats package but intentionally small:
 * stats here are plain values updated inline by the models, and the
 * registry exists only to give them names and a uniform dump format.
 */

#ifndef WBSIM_UTIL_STATS_HH
#define WBSIM_UTIL_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/types.hh"

namespace wbsim::stats
{

/** A monotonically increasing event count. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(Count n) { value_ += n; return *this; }

    Count value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    Count value_ = 0;
};

/** Ratio of two counts, rendered as a fraction or percentage. */
double ratio(Count numerator, Count denominator);

/** Percentage (0-100) of two counts; 0 when denominator is 0. */
double percent(Count numerator, Count denominator);

/**
 * A quantile estimate plus an honesty flag: when the requested rank
 * lands in a histogram's overflow bucket, the value is clamped to
 * the observed maximum and `overflowed` is set so consumers can tell
 * a measured tail from a saturated one.
 */
struct Quantile
{
    double value = 0.0;
    bool overflowed = false;
};

/**
 * A histogram over a fixed integer range [0, buckets * bucketWidth);
 * values beyond the top bucket accumulate in an overflow bucket.
 * Tracks min, max, mean, and per-bucket counts.
 */
class Histogram
{
  public:
    /**
     * @param buckets number of fixed-width buckets before overflow.
     * @param bucket_width values per bucket (1 = unit-width).
     */
    explicit Histogram(std::size_t buckets = 64,
                       std::uint64_t bucket_width = 1);

    /** Record one sample of @p value. Inline: this sits on the
     *  write buffer's per-store path. */
    void
    sample(std::uint64_t value)
    {
        ++counts_[bucketOf(value)];
        ++samples_;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        sum_ += value;
    }

    /** Record @p count samples of @p value. */
    void sample(std::uint64_t value, Count count);

    Count samples() const { return samples_; }
    std::uint64_t minValue() const;
    std::uint64_t maxValue() const { return max_; }
    double mean() const;

    /**
     * The @p q-quantile (q in [0, 1]), linearly interpolated inside
     * the containing bucket and clamped to [minValue, maxValue].
     * Samples in the overflow bucket are treated as sitting at the
     * observed maximum. 0 when empty.
     */
    double quantile(double q) const;

    /**
     * Like quantile(), but also reports whether the requested rank
     * fell in the overflow bucket. An overflowed quantile is only a
     * lower bound: every overflow sample is known to be at least
     * buckets() * bucketWidth(), but the in-bucket distribution is
     * lost, so the estimate clamps to the observed maximum.
     */
    Quantile quantileWithOverflow(double q) const;

    /** Count of samples that landed in the overflow bucket. */
    Count overflowCount() const { return counts_.back(); }

    /**
     * Fold @p other into this histogram. Both must share the same
     * geometry (bucket count and width). Merging is associative and
     * commutative, so per-thread histograms from a sharded grid can
     * be combined in any order with a deterministic result.
     */
    void merge(const Histogram &other);

    /** Count in bucket @p i (i == buckets() means overflow). */
    Count bucket(std::size_t i) const;
    std::size_t buckets() const { return counts_.size() - 1; }
    std::uint64_t bucketWidth() const { return width_; }

    void reset();

    /** Render "mean=… min=… max=… n=…" plus sparkline of buckets. */
    std::string summary() const;

  private:
    /** Marks a width that is not a power of two in shift_. */
    static constexpr unsigned kDivide = 64;

    /** The bucket @p value lands in (the last is overflow). A
     *  power-of-two width, 1 included, shifts: the store path must
     *  not pay a divide, and a `width == 1 ? v : v / width` select
     *  compiles to an unconditional one. */
    std::size_t
    bucketOf(std::uint64_t value) const
    {
        std::uint64_t scaled =
            shift_ != kDivide ? value >> shift_ : divide(value);
        return std::min<std::uint64_t>(scaled, counts_.size() - 1);
    }

    /** Out of line so the divide is never hoisted onto the shift
     *  path. */
    [[gnu::noinline]] std::uint64_t divide(std::uint64_t value) const;

    std::vector<Count> counts_; // last slot is overflow
    std::uint64_t width_ = 1;
    /** log2(width_), or kDivide. */
    unsigned shift_ = 0;
    Count samples_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
    /** Exact integer sum: one add per sample instead of an int to
     *  double conversion, and mean() is the same double as a
     *  running double sum for every sum below 2^53. */
    std::uint64_t sum_ = 0;
};

/**
 * A named collection of scalar statistics for uniform dumping.
 * Models register name → value accessors at construction time.
 */
class StatSet
{
  public:
    /** Register a scalar by value-snapshot (copied at dump time). */
    void addScalar(const std::string &name, const Count *value);
    void addScalar(const std::string &name, const Counter *counter);
    void addDouble(const std::string &name, const double *value);

    /** Write "name value" lines, one per stat, sorted by name. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

  private:
    std::map<std::string, const Count *> counts_;
    std::map<std::string, const Counter *> counters_;
    std::map<std::string, const double *> doubles_;
};

} // namespace wbsim::stats

#endif // WBSIM_UTIL_STATS_HH
