#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "harness/experiment.hh"
#include "obs/json.hh"

namespace perfbench
{

using wbsim::obs::JsonWriter;

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
}

void
Report::fail(const std::string &why)
{
    if (failed_ < 10)
        std::cerr << "perfbench: FAILED: " << why << "\n";
    ++failed_;
}

void
Report::print(std::ostream &os) const
{
    JsonWriter json(os, 0);
    json.beginObject();
    json.field("correct", failed_ == 0);
    json.field("attempted", std::uint64_t(std::max<std::uint64_t>(
                                attempted_, 1)));
    json.field("failed", failed_);
    json.key("metrics").beginObject();
    for (const Metric &m : metrics_) {
        json.key(m.name).beginObject();
        json.field("value", m.value);
        json.field("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = q * double(values.size() - 1);
    std::size_t lo = std::size_t(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - double(lo)) * (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace
{

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

void
setAllowedCpus(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    if (!cpus.empty() && sched_setaffinity(0, sizeof set, &set) != 0)
        std::cerr << "perfbench: could not set the CPU affinity\n";
}

/** Set the mask of every thread of the process; a thread that exits
 *  meanwhile is skipped. */
void
setProcessCpus(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    std::error_code error;
    for (const auto &task : std::filesystem::directory_iterator(
             "/proc/self/task", error)) {
        pid_t tid = pid_t(std::stol(task.path().filename().string()));
        sched_setaffinity(tid, sizeof set, &set);
    }
    if (error)
        std::cerr << "perfbench: could not list this process's threads\n";
}

} // namespace

CpuConfinement::CpuConfinement(unsigned cpus) : previous_(allowedCpus())
{
    std::vector<int> kept = previous_;
    if (kept.size() > cpus)
        kept.resize(cpus);
    setAllowedCpus(kept);
}

CpuConfinement::~CpuConfinement()
{
    setAllowedCpus(previous_);
}

CpuRotation::CpuRotation() : cpus_(allowedCpus()) {}

CpuRotation::~CpuRotation()
{
    setProcessCpus(cpus_);
}

void
CpuRotation::next()
{
    if (!cpus_.empty())
        setProcessCpus({cpus_[turn_++ % cpus_.size()]});
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - epoch_)
        .count();
}

int
SpanRecorder::begin(const std::string &name, int parent,
                    std::uint64_t request, unsigned thread)
{
    if (!enabled_)
        return -1;
    double now = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, request, thread});
    return int(spans_.size() - 1);
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    double now = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[std::size_t(id)].endUs = now;
}

double
SpanRecorder::durationUs(int id) const
{
    if (id < 0)
        return 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    const Span &span = spans_[std::size_t(id)];
    return span.endUs - span.startUs;
}

namespace
{

/** Union length of [start, end) intervals clipped to [lo, hi). */
double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

/** Per-span child coverage, for every span at once. */
std::vector<double>
childCoverage(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[std::size_t(span.parent)].push_back(
                {span.startUs, span.endUs});
    std::vector<double> covered(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        covered[i] = unionLength(std::move(children[i]),
                                 spans[i].startUs, spans[i].endUs);
    return covered;
}

} // namespace

double
SpanRecorder::childCoverageUs(int root) const
{
    if (root < 0)
        return 0.0;
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<double, double>> children;
    for (const Span &span : spans_)
        if (span.parent == root)
            children.push_back({span.startUs, span.endUs});
    const Span &r = spans_[std::size_t(root)];
    return unionLength(std::move(children), r.startUs, r.endUs);
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter json(os, 0);
    json.beginObject();
    json.field("displayTimeUnit", "ms");
    json.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        json.beginObject();
        json.field("name", span.name);
        json.field("cat", span.name.substr(0, span.name.find('.')));
        json.field("ph", "X");
        json.field("ts", span.startUs);
        json.field("dur", span.endUs - span.startUs);
        json.field("pid", 1);
        json.field("tid", span.thread);
        json.key("args").beginObject();
        json.field("id", std::uint64_t(i));
        json.field("parent", span.parent);
        json.field("request", span.request);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

void
SpanRecorder::writeSummary(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    struct Totals
    {
        std::uint64_t count = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
    };
    std::map<std::string, Totals> byName;
    std::vector<double> covered = childCoverage(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        Totals &t = byName[span.name];
        double duration = span.endUs - span.startUs;
        ++t.count;
        t.totalUs += duration;
        t.selfUs += duration - covered[i];
    }
    JsonWriter json(os, 2);
    json.beginObject();
    json.field("schema", "wbsim-perfbench-spans-v1");
    json.key("spans").beginArray();
    for (const auto &[name, t] : byName) {
        json.beginObject();
        json.field("name", name);
        json.field("count", t.count);
        json.field("total_us", t.totalUs);
        json.field("self_us", t.selfUs);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

void
reportSimulatedCounts(Report &report,
                      const std::vector<wbsim::SimResults> &runs)
{
    wbsim::Count stores = 0, merges = 0, hazards = 0, retirements = 0;
    wbsim::Count stallCycles = 0, cycles = 0, l2Misses = 0,
                 memReads = 0;
    for (const wbsim::SimResults &r : runs) {
        stores += r.stores;
        merges += r.wbMerges;
        hazards += r.wbHazards;
        retirements += r.wbRetirements;
        stallCycles += r.stalls.totalCycles();
        cycles += r.cycles;
        l2Misses += r.l2ReadMisses;
        memReads += r.memReads;
    }
    report.metric("core.stores", double(stores), "count");
    report.metric("core.wb_merge_rate",
                  stores ? double(merges) / double(stores) : 0.0,
                  "ratio");
    report.metric("core.wb_hazards", double(hazards), "count");
    report.metric("core.wb_retirements", double(retirements), "count");
    report.metric("core.stall_share",
                  cycles ? double(stallCycles) / double(cycles) : 0.0,
                  "ratio");
    report.metric("mem.l2_read_misses", double(l2Misses), "count");
    report.metric("mem.mem_reads", double(memReads), "count");
}

void
reportBusCounts(Report &report,
                const std::vector<wbsim::MultiCoreResults> &runs)
{
    wbsim::Count grants = 0, contended = 0, wait = 0, busy = 0,
                 cycles = 0;
    for (const wbsim::MultiCoreResults &r : runs) {
        for (const wbsim::BusCoreStats &core : r.bus) {
            grants += core.grants;
            contended += core.contendedGrants;
            wait += core.waitCycles;
            busy += core.busyCycles;
        }
        cycles += r.aggregate().cycles;
    }
    report.metric("bus.grants", double(grants), "count");
    report.metric("bus.contended_share",
                  grants ? double(contended) / double(grants) : 0.0,
                  "ratio");
    report.metric("bus.wait_cycles", double(wait), "count");
    report.metric("bus.busy_share",
                  cycles ? double(busy) / double(cycles) : 0.0, "ratio");
}

void
reportGridCache(Report &report)
{
    wbsim::GridCacheStats stats = wbsim::gridCacheStats();
    report.metric("harness.trace_builds", double(stats.traceBuilds),
                  "count");
    report.metric("harness.trace_hits", double(stats.traceHits),
                  "count");
    report.metric("harness.checkpoint_builds",
                  double(stats.checkpointBuilds), "count");
    report.metric("harness.checkpoint_hits",
                  double(stats.checkpointHits), "count");
    report.metric("harness.cached_mb",
                  double(stats.cachedBytes) / (1024.0 * 1024.0), "MB");
}

void
reportServeAbsent(Report &report)
{
    static const char *const kMetrics[][2] = {
        {"serve.encode_req_us", "us"},
        {"serve.decode_req_us", "us"},
        {"serve.encode_resp_us", "us"},
        {"serve.decode_resp_us", "us"},
        {"serve.hit_req_p50_ms", "ms"},
        {"serve.miss_req_p50_ms", "ms"},
        {"serve.store_hits", "count"},
        {"serve.store_misses", "count"},
        {"serve.store_evictions", "count"},
        {"serve.store_hit_ratio", "ratio"},
        {"serve.queue_pushed", "count"},
        {"serve.queue_rejected", "count"},
        {"serve.queue_high_water", "count"},
        {"serve.server_cell_p50_us", "us"},
        {"serve.server_cell_p99_us", "us"},
        {"serve.retries", "count"},
    };
    for (const auto &[name, unit] : kMetrics)
        report.metric(name, 0.0, unit);
}

void
reportTraceCost(Report &report, double tracedSeconds,
                double untracedSeconds, double coveredUs, double rootUs)
{
    report.metric("bench.trace_overhead_pct",
                  untracedSeconds > 0.0
                      ? (tracedSeconds / untracedSeconds - 1.0) * 100.0
                      : 0.0,
                  "%");
    report.metric("bench.unattributed_pct",
                  rootUs > 0.0 ? (1.0 - coveredUs / rootUs) * 100.0
                               : 0.0,
                  "%");
}

void
writeTraceFiles(const Args &args, const SpanRecorder &spans)
{
    std::filesystem::create_directories(args.outDir);
    std::string stem = args.outDir + "/" + args.workload + "-seed"
                       + std::to_string(args.seed);
    std::ofstream trace(stem + ".trace.json");
    spans.writeChromeTrace(trace);
    std::ofstream summary(stem + ".layers.json");
    spans.writeSummary(summary);
    std::cerr << "perfbench: wrote " << stem << ".trace.json and "
              << stem << ".layers.json\n";
}

} // namespace perfbench
