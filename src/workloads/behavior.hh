/**
 * @file
 * Address-stream behaviours: the building blocks of the synthetic
 * SPEC92 workload models.
 *
 * The original study instrumented DEC Alpha SPEC92 binaries with
 * ATOM; those binaries and traces are unobtainable, so each
 * benchmark is modelled as a weighted mixture of archetypal access
 * behaviours, calibrated to the paper's published per-benchmark
 * statistics (Tables 4, 5 and 7). See DESIGN.md §2.
 */

#ifndef WBSIM_WORKLOADS_BEHAVIOR_HH
#define WBSIM_WORKLOADS_BEHAVIOR_HH

#include <cstdint>
#include <vector>

#include "util/random.hh"
#include "util/types.hh"

namespace wbsim
{

/** The closed set of behaviour archetypes. */
enum class BehaviorKind : std::uint8_t
{
    /** Sequential walk over a region, restarting at the beginning:
     *  models array streaming and re-traversal. Region size controls
     *  which cache level captures the reuse. */
    Loop,
    /** Uniformly random aligned accesses within a region: models
     *  hash tables and irregular heap access. */
    Random,
    /** Column-major matrix walk: consecutive accesses `stride`
     *  bytes apart, `columns` per sweep, then the base shifts by one
     *  element. Models the "wrong"-order NASA kernels (Table 6). */
    Strided,
    /** Random walk up/down a stack of small frames: very high
     *  locality; models call-stack traffic. */
    Stack,
    /** Pointer chase over a fixed random permutation of nodes:
     *  low spatial locality with a long reuse cycle. */
    PointerChase,
};

const char *behaviorKindName(BehaviorKind kind);

/** Declarative description of one behaviour in a profile. */
struct BehaviorSpec
{
    BehaviorKind kind = BehaviorKind::Loop;
    /** Mixture weight within its role (loads or stores). */
    double weight = 1.0;
    /** Footprint in bytes (Loop/Random/Stack footprint; for
     *  PointerChase, node count * 64B node size; for Strided,
     *  columns * stride). */
    std::uint64_t region = 64 * 1024;
    /** Strided only: distance between consecutive accesses. */
    std::uint64_t stride = 0;
    /** Access size in bytes (4 or 8 on the paper's Alphas). */
    unsigned accessBytes = 8;
    /**
     * Store behaviours only: index of the load behaviour whose
     * address arena this behaviour shares (-1 = private arena).
     * Real programs write the arrays they read; sharing keeps the
     * combined cache footprint honest.
     */
    int shareWithLoad = -1;
};

/**
 * A live address generator instantiated from a BehaviorSpec. The
 * kinds form a closed set, so next() dispatches with a switch on
 * BehaviorKind: the generator draws one address per memory record,
 * and an inlined switch costs less than a virtual call per record.
 * Each member below serves the kinds named in its comment.
 */
class Behavior
{
  public:
    /**
     * @param spec declarative parameters.
     * @param base start of this behaviour's private address arena.
     * @param seed deterministic seed for any internal randomness.
     */
    Behavior(const BehaviorSpec &spec, Addr base, std::uint64_t seed);

    BehaviorKind kind() const { return kind_; }

    /** Access size for this stream. */
    unsigned accessBytes() const { return access_; }

    /** Produce the next address of this behaviour's stream. */
    Addr
    next()
    {
        switch (kind_) {
          case BehaviorKind::Loop: {
            // Sequential walk over [base, base+region), wrapping.
            Addr addr = base_ + offset_;
            offset_ += access_;
            if (offset_ + access_ > region_)
                offset_ = 0;
            return addr;
          }
          case BehaviorKind::Random:
            // Uniform random aligned accesses within the region.
            return base_ + rng_.nextBelow(slots_) * access_;
          case BehaviorKind::Strided: {
            // Column-major sweep: consecutive accesses are `stride`
            // bytes apart (one per "row"); after `columns` accesses
            // the walk returns to the top, shifted by one element;
            // after `stride / accessBytes` sweeps the whole matrix
            // restarts.
            Addr addr = base_ + column_ * stride_ + sweep_ * access_;
            if (++column_ >= columns_) {
                column_ = 0;
                if (++sweep_ >= sweeps_)
                    sweep_ = 0;
            }
            return addr;
          }
          case BehaviorKind::Stack: {
            // Mostly touch the current frame; sometimes push or pop.
            std::uint64_t r = rng_.next() >> 11;
            if (r < push_cut_ && depth_ + 1 < max_depth_)
                ++depth_;
            else if (r < pop_cut_ && depth_ > 0)
                --depth_;
            std::uint64_t slot = rng_.nextBelow(slots_);
            return base_ + depth_ * kLineBytes + slot * access_;
          }
          case BehaviorKind::PointerChase: {
            // Walk a fixed random permutation of line-sized nodes.
            Addr addr = base_ + static_cast<Addr>(current_) * kLineBytes;
            current_ = chain_[current_];
            return addr;
          }
        }
        return base_;
    }

  private:
    /** Stack frame and pointer-chase node size. */
    static constexpr std::uint64_t kLineBytes = 64;

    BehaviorKind kind_;
    Addr base_;
    unsigned access_;
    /** Loop: region bytes and the walk's offset into it. */
    std::uint64_t region_ = 0;
    std::uint64_t offset_ = 0;
    /** Random: slots in the region; Stack: slots in a frame. */
    std::uint64_t slots_ = 0;
    /** Strided: the walk's geometry and position. */
    std::uint64_t stride_ = 0;
    std::uint64_t columns_ = 0;
    std::uint64_t sweeps_ = 0;
    std::uint64_t column_ = 0;
    std::uint64_t sweep_ = 0;
    /** Stack: frame depth bound and position; push and pop draw
     *  below Rng::doubleCut of 0.06 and 0.12. */
    std::uint64_t max_depth_ = 0;
    std::uint64_t depth_ = 0;
    std::uint64_t push_cut_ = 0;
    std::uint64_t pop_cut_ = 0;
    /** PointerChase: the permutation and the current node. */
    std::vector<std::uint32_t> chain_;
    std::uint32_t current_ = 0;
    /** Random, Stack: the behaviour's own stream. */
    Rng rng_;
};

} // namespace wbsim

#endif // WBSIM_WORKLOADS_BEHAVIOR_HH
