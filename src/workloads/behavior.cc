#include "workloads/behavior.hh"

#include <algorithm>
#include <numeric>

#include "util/bits.hh"
#include "util/logging.hh"

namespace wbsim
{

const char *
behaviorKindName(BehaviorKind kind)
{
    switch (kind) {
      case BehaviorKind::Loop:
        return "loop";
      case BehaviorKind::Random:
        return "random";
      case BehaviorKind::Strided:
        return "strided";
      case BehaviorKind::Stack:
        return "stack";
      case BehaviorKind::PointerChase:
        return "pointer-chase";
    }
    return "?";
}

Behavior::Behavior(const BehaviorSpec &spec, Addr base,
                   std::uint64_t seed)
    : kind_(spec.kind), base_(base), access_(spec.accessBytes),
      rng_(seed)
{
    wbsim_assert(spec.accessBytes > 0 && isPowerOfTwo(spec.accessBytes),
                 "behaviour access size must be a power of two");
    switch (kind_) {
      case BehaviorKind::Loop:
        region_ = spec.region;
        wbsim_assert(region_ >= access_, "loop region too small");
        break;
      case BehaviorKind::Random:
        slots_ = spec.region / spec.accessBytes;
        wbsim_assert(slots_ > 0, "random region too small");
        break;
      case BehaviorKind::Strided:
        stride_ = spec.stride;
        wbsim_assert(stride_ >= access_, "stride smaller than access");
        columns_ = std::max<std::uint64_t>(1, spec.region / stride_);
        sweeps_ = std::max<std::uint64_t>(1, stride_ / access_);
        break;
      case BehaviorKind::Stack:
        slots_ = kLineBytes / access_;
        max_depth_ = std::max<std::uint64_t>(2, spec.region / kLineBytes);
        push_cut_ = Rng::doubleCut(0.06);
        pop_cut_ = Rng::doubleCut(0.12);
        break;
      case BehaviorKind::PointerChase: {
        std::uint64_t nodes =
            std::max<std::uint64_t>(2, spec.region / kLineBytes);
        nodes = std::min<std::uint64_t>(nodes, 1u << 20);
        chain_.resize(nodes);
        std::iota(chain_.begin(), chain_.end(), 0u);
        // Sattolo's algorithm: one cycle through every node.
        Rng rng(seed);
        for (std::uint64_t i = nodes - 1; i >= 1; --i) {
            std::uint64_t j = rng.nextBelow(i);
            std::swap(chain_[i], chain_[j]);
        }
        break;
      }
      default:
        wbsim_panic("unknown behaviour kind");
    }
}

} // namespace wbsim
