#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/logging.hh"

namespace wbsim::stats
{

double
ratio(Count numerator, Count denominator)
{
    if (denominator == 0)
        return 0.0;
    return static_cast<double>(numerator)
        / static_cast<double>(denominator);
}

double
percent(Count numerator, Count denominator)
{
    return 100.0 * ratio(numerator, denominator);
}

Histogram::Histogram(std::size_t buckets, std::uint64_t bucket_width)
    : counts_(buckets + 1, 0), width_(bucket_width),
      shift_(std::has_single_bit(bucket_width)
                 ? static_cast<unsigned>(std::countr_zero(bucket_width))
                 : kDivide)
{
    wbsim_assert(buckets > 0, "histogram needs at least one bucket");
    wbsim_assert(bucket_width > 0, "histogram bucket width must be > 0");
}

std::uint64_t
Histogram::divide(std::uint64_t value) const
{
    return value / width_;
}

void
Histogram::sample(std::uint64_t value, Count count)
{
    if (count == 0)
        return;
    counts_[bucketOf(value)] += count;
    samples_ += count;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += value * count;
}

double
Histogram::quantile(double q) const
{
    return quantileWithOverflow(q).value;
}

Quantile
Histogram::quantileWithOverflow(double q) const
{
    if (samples_ == 0)
        return {0.0, false};
    q = std::min(1.0, std::max(0.0, q));
    // The sample with (0-based) rank floor(q * (n - 1)).
    Count target = static_cast<Count>(
        q * static_cast<double>(samples_ - 1));
    Count before = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        Count c = counts_[i];
        if (c == 0 || before + c <= target) {
            before += c;
            continue;
        }
        if (i == counts_.size() - 1) {
            // Overflow bucket: the in-bucket distribution is lost, so
            // clamp to the observed maximum and say so.
            return {static_cast<double>(max_), true};
        }
        // Interpolate linearly inside [i, i+1) * width.
        double frac = (static_cast<double>(target - before) + 0.5)
            / static_cast<double>(c);
        double value = (static_cast<double>(i) + frac)
            * static_cast<double>(width_);
        value = std::max(value, static_cast<double>(min_));
        return {std::min(value, static_cast<double>(max_)), false};
    }
    return {static_cast<double>(max_), false};
}

void
Histogram::merge(const Histogram &other)
{
    wbsim_assert(counts_.size() == other.counts_.size()
                     && width_ == other.width_,
                 "merging histograms with different geometries");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    samples_ += other.samples_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

std::uint64_t
Histogram::minValue() const
{
    return samples_ == 0 ? 0 : min_;
}

double
Histogram::mean() const
{
    if (samples_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(samples_);
}

Count
Histogram::bucket(std::size_t i) const
{
    wbsim_assert(i < counts_.size(), "histogram bucket out of range");
    return counts_[i];
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    samples_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
    sum_ = 0;
}

std::string
Histogram::summary() const
{
    static const char *glyphs[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
    std::ostringstream os;
    os << "n=" << samples_ << " mean=" << mean()
       << " min=" << minValue() << " max=" << max_ << " |";
    Count peak = 0;
    for (Count c : counts_)
        peak = std::max(peak, c);
    for (Count c : counts_) {
        std::size_t level = 0;
        if (peak > 0 && c > 0)
            level = 1 + (c * 6) / peak;
        os << glyphs[std::min<std::size_t>(level, 7)];
    }
    os << "|";
    return os.str();
}

void
StatSet::addScalar(const std::string &name, const Count *value)
{
    counts_[name] = value;
}

void
StatSet::addScalar(const std::string &name, const Counter *counter)
{
    counters_[name] = counter;
}

void
StatSet::addDouble(const std::string &name, const double *value)
{
    doubles_[name] = value;
}

void
StatSet::dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[name, ptr] : counts_)
        os << prefix << name << " " << *ptr << "\n";
    for (const auto &[name, ptr] : counters_)
        os << prefix << name << " " << ptr->value() << "\n";
    for (const auto &[name, ptr] : doubles_)
        os << prefix << name << " " << *ptr << "\n";
}

} // namespace wbsim::stats
