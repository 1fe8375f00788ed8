/**
 * @file
 * MetricsRegistry: named counters, gauges, and fixed-bucket latency
 * histograms that the core models publish into.
 *
 * The registry is built for the simulator's hot paths: metrics are
 * registered once up front and referred to by small integer handles,
 * values live in flat arrays, and every publish operation is an
 * indexed add/store with no allocation, no locking, and no name
 * lookup. Components hold a `MetricsRegistry *` that is null until a
 * sink is attached, so an un-observed run pays one predictable
 * branch per publish site (DESIGN.md §8).
 *
 * Registration is idempotent by name: attaching the same component
 * twice (e.g. after a snapshot restore) reuses the existing handles,
 * and per-thread registries with identical registration order can be
 * combined with merge().
 */

#ifndef WBSIM_OBS_METRICS_HH
#define WBSIM_OBS_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace wbsim::obs
{

/** Handle to a registered metric (index into the registry). */
using MetricId = std::uint32_t;

/** What a registered metric is. */
enum class MetricKind : std::uint8_t
{
    Counter, //!< monotonically increasing count
    Gauge,   //!< last-written level (e.g. buffer occupancy)
    Histogram, //!< fixed-bucket value distribution
};

/** Printable name for a MetricKind. */
const char *metricKindName(MetricKind kind);

/**
 * How a gauge combines when per-thread shards merge. Counters add
 * and histograms fold either way, but a gauge is a *level*, and the
 * right way to reconcile two levels depends on what it measures:
 * a high-water-mark style gauge wants the peak, while an
 * occupancy-style gauge wants the value the later shard finished
 * with (a shard that drained to idle must not lose to one that
 * happened to peak higher).
 */
enum class GaugeMerge : std::uint8_t
{
    Max,        //!< peak across shards (high-water style)
    LastWriter, //!< the merged-in shard's value wins (level style)
};

/** Registry of named metrics with flat, allocation-free hot paths. */
class MetricsRegistry
{
  public:
    /** Register (or look up) a counter named @p name. */
    MetricId counter(const std::string &name);

    /**
     * Register (or look up) a gauge named @p name. The @p merge
     * policy is fixed at registration time; re-registering the same
     * gauge must agree on it.
     */
    MetricId gauge(const std::string &name,
                   GaugeMerge merge = GaugeMerge::Max);

    /**
     * Register (or look up) a histogram named @p name with
     * @p buckets fixed-width buckets of @p bucket_width values each
     * (values beyond the range land in an overflow bucket). The
     * geometry of an existing histogram must match.
     */
    MetricId histogram(const std::string &name, std::size_t buckets,
                       std::uint64_t bucket_width = 1);

    /** @name Hot-path publish operations (handles must be valid). */
    /// @{
    void
    add(MetricId id, Count n = 1)
    {
        counters_[id] += n;
    }

    void
    set(MetricId id, std::int64_t value)
    {
        gauges_[id] = value;
    }

    void
    sample(MetricId id, std::uint64_t value)
    {
        histograms_[id].sample(value);
    }
    /// @}

    /** @name Read-side accessors (export and tests). */
    /// @{
    std::size_t size() const { return metrics_.size(); }
    const std::string &name(std::size_t i) const;
    MetricKind kind(std::size_t i) const;
    Count counterValue(std::size_t i) const;
    std::int64_t gaugeValue(std::size_t i) const;
    const stats::Histogram &histogramValue(std::size_t i) const;
    /// @}

    /**
     * Fold @p other into this registry. Both must have registered
     * the same metrics in the same order (the per-thread-shard
     * pattern); histograms merge, counters add, and each gauge
     * follows the GaugeMerge policy it was registered with.
     */
    void merge(const MetricsRegistry &other);

    /** Zero every value; registrations are kept. */
    void reset();

  private:
    /** One registered metric: its identity plus a slot index into
     *  the kind-specific flat array. */
    struct Meta
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        MetricId slot = 0;
    };

    /** Index of the metric named @p name, or -1. */
    int find(const std::string &name) const;

    std::vector<Meta> metrics_;
    std::vector<Count> counters_;
    std::vector<std::int64_t> gauges_;
    std::vector<GaugeMerge> gauge_merge_; // parallel to gauges_
    std::vector<stats::Histogram> histograms_;
};

} // namespace wbsim::obs

#endif // WBSIM_OBS_METRICS_HH
