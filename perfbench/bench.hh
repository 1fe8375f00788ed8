/**
 * @file
 * Shared pieces of the wbsim benchmark: command-line arguments, the
 * result report (the one JSON line the benchmark prints last), sample
 * statistics, the in-memory span recorder behind the traced run, and
 * the layer probes every workload's traced run shares.
 *
 * The benchmark drives wbsim only through its public entry points
 * (runOne/runMultiCore, MultiCoreSystem, Simulator, the trace
 * classes, ServeServer/ServeClient, the wire codecs and
 * writeSimResultsJson). Every span is recorded here, around those
 * calls, never inside the program.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine_config.hh"
#include "sim/multicore.hh"
#include "sim/results.hh"
#include "util/random.hh"
#include "workloads/profile.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its trace and layer summary. */
    std::string outDir = ".bench_out";
};

/** The benchmark's verdict and metrics, printed as one JSON line. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Count @p n checked operations. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failed operation; the first few are logged. */
    void fail(const std::string &why);

    /** {"correct", "attempted", "failed", "metrics"} on one line. */
    void print(std::ostream &os) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Linear-interpolated quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Confines the calling thread, and every thread it starts while the
 * object lives, to the first @p cpus CPUs it may run on; restores the
 * previous mask on destruction. On a virtual machine, waking a thread
 * on another, halted vCPU can cost the hypervisor's scheduling delay;
 * confining threads that hand work to each other keeps their wake-ups
 * local and that delay out of the measurement.
 */
class CpuConfinement
{
  public:
    explicit CpuConfinement(unsigned cpus);
    ~CpuConfinement();
    CpuConfinement(const CpuConfinement &) = delete;
    CpuConfinement &operator=(const CpuConfinement &) = delete;

  private:
    std::vector<int> previous_;
};

/**
 * Moves every thread of the process round-robin over the CPUs the
 * constructing thread may run on, one CPU per next(); restores that
 * mask to every thread on destruction. On a shared host one vCPU can
 * sit on a busy physical core for a whole run while another runs at
 * full speed; visiting every vCPU gives a best-of figure the chance to
 * be taken on the fastest of them.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next();

  private:
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/** Samples a timed region needs so that at least ten lie beyond its
 *  p99. */
inline constexpr std::size_t kTailSamples = 1000;

/** Hard stop for any timed region, whatever --seconds asks. */
inline constexpr double kMaxTimedSeconds = 120.0;

/** A deterministic shuffle of @p items under @p seed. */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    wbsim::Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

/** One recorded span: a timed call into one layer. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the span that caused this one, or -1. */
    int parent = -1;
    /** Spans of one request (or one grid cell) share this id. */
    std::uint64_t request = 0;
    unsigned thread = 0;
};

/**
 * In-memory span recorder. A disabled recorder ignores every call,
 * so untraced code paths pay one branch per call site. Thread-safe:
 * serve clients record from their own threads.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const std::string &name, int parent = -1,
              std::uint64_t request = 0, unsigned thread = 0);
    void end(int id);

    /** Opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, const std::string &name,
              int parent = -1, std::uint64_t request = 0,
              unsigned thread = 0)
            : recorder_(recorder),
              id_(recorder.begin(name, parent, request, thread))
        {
        }
        ~Scope() { recorder_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int id() const { return id_; }

      private:
        SpanRecorder &recorder_;
        int id_;
    };

    double durationUs(int id) const;

    /** Microseconds of @p root covered by the union of its direct
     *  children, clipped to the root's interval. */
    double childCoverageUs(int root) const;

    /** Chrome trace_event JSON of every span. */
    void writeChromeTrace(std::ostream &os) const;

    /** Per span name: count, total and self microseconds (self =
     *  duration minus the part its child spans cover). */
    void writeSummary(std::ostream &os) const;

  private:
    double nowUs() const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** One grid cell as the benchmark runs it. */
struct GridCell
{
    wbsim::BenchmarkProfile profile;
    wbsim::MachineConfig machine;
    std::uint64_t seed = 1;
    wbsim::Count instructions = 0;
    wbsim::Count warmup = 0;
};

/** What the layer probes run on: the workload's own cells. */
struct ProbeInput
{
    /** Cells probed through Simulator directly (single-core). */
    std::vector<GridCell> cells;
    /** Cells probed through MultiCoreSystem directly (empty outside
     *  multicore_bus). */
    std::vector<GridCell> multiCells;
    /** Results exported through writeSimResultsJson. */
    std::vector<wbsim::SimResults> exports;
};

/**
 * Time each layer through its public entry points on the workload's
 * own cells and add the workloads.*, trace.*, sim.*,
 * bus.host_ns_per_grant, harness.lookup_us and obs.export_us
 * metrics. Direct-path results are checked against
 * runOne/runMultiCore, so the probes count toward attempted/failed.
 */
void probeLayers(const ProbeInput &input, Report &report,
                 SpanRecorder &spans);

/** Add core.* and mem.* counts summed over @p runs. */
void reportSimulatedCounts(Report &report,
                           const std::vector<wbsim::SimResults> &runs);

/** Add bus.* counts summed over @p runs (zeros when empty). */
void reportBusCounts(Report &report,
                     const std::vector<wbsim::MultiCoreResults> &runs);

/** Add the harness.* grid-cache counters and footprint. */
void reportGridCache(Report &report);

/** Add the serve.* metrics as zeros: the sim workloads never reach
 *  the serve layer. */
void reportServeAbsent(Report &report);

/** Add bench.trace_overhead_pct (traced vs untraced time of the same
 *  work) and bench.unattributed_pct (share of the traced roots no
 *  layer span covers). */
void reportTraceCost(Report &report, double tracedSeconds,
                     double untracedSeconds, double coveredUs,
                     double rootUs);

/** Write the traced run's trace_event JSON and layer summary. */
void writeTraceFiles(const Args &args, const SpanRecorder &spans);

/** @name Workloads; each fills @p report. */
/// @{
void runPaperGrid(const Args &args, Report &report);
void runMulticoreBus(const Args &args, Report &report);
void runServeMix(const Args &args, Report &report);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
