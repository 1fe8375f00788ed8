#include "core/write_buffer.hh"

#include "core/policy/policy_factory.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace wbsim
{

WriteBuffer::WriteBuffer(const WriteBufferConfig &config, L2Port &port,
                         L2WriteHook hook, unsigned line_bytes)
    : config_(config), port_(port), hook_(std::move(hook)),
      store_(config_, line_bytes, entryOrderFor(config_.kind)),
      selector_(makeVictimSelector(config_)),
      hazard_(makeHazardHandler(config_)),
      engine_(store_, port_, hook_, config_, stats_, *selector_,
              makeRetirementTriggers(config_))
{
    config_.validate();
    wbsim_assert(hook_ != nullptr, "write buffer needs an L2 write hook");
    store_.setSelector(selector_.get());
}

WriteBuffer::WriteBuffer(const WriteBuffer &other, L2Port &port,
                         L2WriteHook hook)
    : config_(other.config_), port_(port), hook_(std::move(hook)),
      stats_(other.stats_), store_(other.store_),
      selector_(other.selector_->clone()),
      hazard_(makeHazardHandler(config_)),
      engine_(other.engine_, store_, port_, hook_, config_, stats_,
              *selector_)
{
    wbsim_assert(hook_ != nullptr, "write buffer needs an L2 write hook");
    store_.setSelector(selector_.get());
    store_.setOccupancyGauge(nullptr, 0);
}

Cycle
WriteBuffer::store(Addr addr, unsigned size, Cycle now,
                   StallStats &stalls)
{
    engine_.advanceTo(now);
    ++stats_.stores;
    stats_.occupancy.sample(occupancy());
    if (metrics_ != nullptr)
        metrics_->sample(m_occupancy_at_store_, store_.validCount());

    Addr base = alignDown(addr, config_.entryBytes);
    std::uint32_t mask = store_.wordMask(addr, size);

    if (config_.coalescing) {
        if (int target =
                store_.findMergeTarget(base, engine_.excludeIndex());
            target >= 0) {
            store_.merge(static_cast<std::size_t>(target), mask);
            ++stats_.merges;
            if (store_.crossCheck())
                store_.verifyIntegrity();
            return now;
        }
    }

    Cycle t = engine_.makeRoom(now, stalls);
    store_.allocate(base, mask, t);
    ++stats_.allocations;
    engine_.noteOccupancyChange(t);
    if (store_.crossCheck())
        store_.verifyIntegrity();
    return t;
}

HazardResult
WriteBuffer::handleLoadHazard(const LoadProbe &probe, Addr addr,
                              unsigned size, Cycle now)
{
    wbsim_assert(probe.blockHit, "hazard handling without a block hit");
    ++stats_.hazards;
    return hazard_->handle(engine_, store_, config_, stats_, probe,
                           addr, size, now);
}

void
WriteBuffer::attachMetrics(obs::MetricsRegistry *metrics)
{
    metrics_ = metrics;
    if (metrics_ == nullptr) {
        store_.setOccupancyGauge(nullptr, 0);
        engine_.setRetireWordsMetric(nullptr, 0);
        return;
    }
    // Occupancy is a level, not a peak: under a sharded grid the
    // later shard's final value must win the merge.
    obs::MetricId occupancy =
        metrics_->gauge("wb.occupancy", obs::GaugeMerge::LastWriter);
    m_occupancy_at_store_ =
        metrics_->histogram("wb.occupancy_at_store", config_.depth + 1);
    store_.setOccupancyGauge(metrics_, occupancy);
    engine_.setRetireWordsMetric(
        metrics_, metrics_->histogram("wb.retire_words",
                                      config_.wordsPerEntry() + 1));
    metrics_->set(occupancy, store_.validCount());
}

} // namespace wbsim
