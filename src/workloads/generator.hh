/**
 * @file
 * SyntheticSource: turns a BenchmarkProfile into a deterministic
 * TraceRecord stream.
 */

#ifndef WBSIM_WORKLOADS_GENERATOR_HH
#define WBSIM_WORKLOADS_GENERATOR_HH

#include <array>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"
#include "workloads/profile.hh"

namespace wbsim
{

/** Deterministic synthetic workload generator. */
class SyntheticSource : public TraceSource
{
  public:
    /**
     * @param profile the benchmark model (copied).
     * @param instructions stream length.
     * @param seed master seed; every internal stream derives from it.
     */
    SyntheticSource(BenchmarkProfile profile, Count instructions,
                    std::uint64_t seed = 1);

    bool next(TraceRecord &record) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;

    /**
     * Native run items (see TraceRun): the records nextBatch() would
     * deliver, folded as they are drawn, with no record batch in
     * between. A NonMem record joins the pending run when its pc is
     * the previous record's pc + 4, whichever call delivered that
     * record, so a run may continue an earlier call's last item. A
     * run cut by @p budget or the end of the stream travels in
     * carrier form. next(), nextBatch() and nextRuns() share one
     * emit core and may be interleaved freely.
     */
    std::size_t nextRuns(TraceRun *out, std::size_t max,
                         Count budget = kNoBudget) override;

    void reset() override;
    std::string name() const override { return profile_.name; }

    const BenchmarkProfile &profile() const { return profile_; }
    Count instructions() const { return limit_; }

  private:
    struct RecentStore
    {
        Addr addr = 0;
        unsigned size = 8;
    };

    BenchmarkProfile profile_;
    Count limit_;
    std::uint64_t seed_;

    std::vector<Behavior> load_behaviors_;
    std::vector<Behavior> store_behaviors_;
    /** Rng::weightedCuts of the profile's behaviour weights. */
    std::vector<std::uint64_t> load_cuts_;
    std::vector<std::uint64_t> store_cuts_;

    /** @name Per-record draws, precomputed from the profile.
     *  Each is the integer form of the double test it replaces
     *  (Rng::doubleCut, Bernoulli), so the stream is unchanged. */
    /// @{
    /** Op draw: a store burst starts below burst_cut_, a load is
     *  drawn below load_cut_. */
    std::uint64_t burst_cut_ = 0;
    std::uint64_t load_cut_ = 0;
    Bernoulli burst_continue_;
    Bernoulli run_continue_;
    Bernoulli raw_;
    Bernoulli barrier_;
    Bernoulli jump_;
    /** Loops within the code footprint a jump picks from. */
    std::uint64_t loops_ = 1;
    /// @}

    /**
     * Everything the emit core advances per record. The batch loops
     * run on a local copy, which the compiler keeps in registers:
     * through a member, every output store might alias the Rng
     * state, so each draw would reload it from memory.
     */
    struct Cursor
    {
        Rng rng{1};
        Count emitted = 0;
        unsigned burstLeft = 0;
        unsigned storeRunLeft = 0;
        std::size_t storeRunBehavior = 0;
        /** Ring position and fill of recent_. */
        std::size_t recentHead = 0;
        std::size_t recentCount = 0;
        /** Instruction-address model. */
        Addr loopBase = 0;
        Addr pc = 0;
        /** pc of the last record delivered; before the first one, a
         *  value the first record's pc does not continue. */
        Addr lastPc = 0;
    };
    Cursor cursor_;

    /** Ring of recent stores feeding RAW loads. */
    std::array<RecentStore, 64> recent_;

    void rebuild();
    /**
     * The emit core of next(), nextBatch() and nextRuns(): draw the
     * stream's next record, advancing @p c, and hand it to @p sink —
     * sink.nonMem(pc) for a plain NonMem record, sink.record(rec)
     * for any other (the caller checks the limit). Keeping the
     * NonMem path apart lets the run fold test its pc alone.
     */
    template <typename Sink> void emit(Cursor &c, Sink &sink);
    TraceRecord makeLoad(Cursor &c);
    TraceRecord makeStore(Cursor &c);
    Addr nextPc(Cursor &c);
};

} // namespace wbsim

#endif // WBSIM_WORKLOADS_GENERATOR_HH
