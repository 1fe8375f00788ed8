#include "obs/export.hh"

#include <iomanip>
#include <limits>
#include <sstream>

#include "util/logging.hh"

namespace wbsim::obs
{

namespace
{

/** CSV-safe double: max_digits10 so values re-parse exactly. */
std::string
csvDouble(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

/** Quote a CSV field only when it needs it. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
Provenance::defaultBuildFlags()
{
    std::string flags;
#if defined(__VERSION__)
    flags += __VERSION__;
#else
    flags += "unknown-compiler";
#endif
#ifdef NDEBUG
    flags += " release";
#else
    flags += " debug-assertions";
#endif
    return flags;
}

void
writeProvenance(JsonWriter &json, const Provenance &provenance)
{
    json.key("provenance").beginObject();
    json.field("tool", "wbsim");
    json.field("machine_fingerprint", provenance.machineFingerprint);
    json.field("machine", provenance.machine);
    json.field("seed", provenance.seed);
    json.field("instructions", provenance.instructions);
    json.field("warmup", provenance.warmup);
    json.field("build_flags", provenance.buildFlags);
    json.endObject();
}

void
writeSimResultsJson(std::ostream &os, const SimResults &r,
                    const Provenance &provenance)
{
    JsonWriter json(os);
    writeSimResultsObject(json, r, provenance);
    os << "\n";
}

void
writeSimResultsJson(std::string &out, const SimResults &r,
                    const Provenance &provenance)
{
    JsonWriter json(out);
    writeSimResultsObject(json, r, provenance);
    out += '\n';
}

void
writeSimResultsObject(JsonWriter &json, const SimResults &r,
                      const Provenance &provenance)
{
    json.beginObject();
    json.field("schema", "wbsim-sim-results-v1");
    writeProvenance(json, provenance);
    json.field("workload", r.workload);
    json.field("machine", r.machine);
    json.field("instructions", r.instructions);
    json.field("cycles", r.cycles);
    json.field("loads", r.loads);
    json.field("stores", r.stores);

    json.key("stalls").beginObject();
    json.key("buffer_full").beginObject();
    json.field("cycles", r.stalls.bufferFullCycles);
    json.field("events", r.stalls.bufferFullEvents);
    json.field("max_episode", r.stalls.bufferFullMaxEpisode);
    json.endObject();
    json.key("read_access").beginObject();
    json.field("cycles", r.stalls.l2ReadAccessCycles);
    json.field("events", r.stalls.l2ReadAccessEvents);
    json.field("max_episode", r.stalls.l2ReadAccessMaxEpisode);
    json.endObject();
    json.key("load_hazard").beginObject();
    json.field("cycles", r.stalls.loadHazardCycles);
    json.field("events", r.stalls.loadHazardEvents);
    json.field("max_episode", r.stalls.loadHazardMaxEpisode);
    json.endObject();
    // Derived percentages, so the artifact is plottable without
    // recomputation; parse re-derives and cross-checks them.
    json.key("pct").beginObject();
    json.field("buffer_full", r.pctBufferFull());
    json.field("read_access", r.pctL2ReadAccess());
    json.field("load_hazard", r.pctLoadHazard());
    json.field("total", r.pctTotalStalls());
    json.endObject();
    // Burstiness summary: how clustered the stalls were, not just
    // how many cycles they cost.
    json.key("tail").beginObject();
    json.field("episodes_per_10k", r.stallEpisodesPer10k());
    json.field("max_episode", r.maxStallEpisode());
    json.endObject();
    json.endObject();

    json.key("l1").beginObject();
    json.field("load_hits", r.l1LoadHits);
    json.field("load_misses", r.l1LoadMisses);
    json.field("store_hits", r.l1StoreHits);
    json.field("store_misses", r.l1StoreMisses);
    json.field("load_hit_rate", r.l1LoadHitRate());
    json.endObject();

    json.key("wb").beginObject();
    json.field("merges", r.wbMerges);
    json.field("allocations", r.wbAllocations);
    json.field("retirements", r.wbRetirements);
    json.field("flushes", r.wbFlushes);
    json.field("hazards", r.wbHazards);
    json.field("served_loads", r.wbServedLoads);
    json.field("words_written", r.wbWordsWritten);
    json.field("entries_written", r.wbEntriesWritten);
    json.field("mean_occupancy", r.wbMeanOccupancy);
    json.field("merge_rate", r.wbMergeRate());
    json.endObject();

    json.key("l2").beginObject();
    json.field("read_hits", r.l2ReadHits);
    json.field("read_misses", r.l2ReadMisses);
    json.field("write_hits", r.l2WriteHits);
    json.field("write_misses", r.l2WriteMisses);
    json.field("read_hit_rate", r.l2ReadHitRate());
    json.endObject();

    json.key("mem").beginObject();
    json.field("reads", r.memReads);
    json.field("write_backs", r.memWriteBacks);
    json.endObject();

    json.key("ifetch").beginObject();
    json.field("misses", r.ifetchMisses);
    json.field("l2_stall_cycles", r.l2IFetchStallCycles);
    json.endObject();

    json.key("barrier").beginObject();
    json.field("count", r.barriers);
    json.field("stall_cycles", r.barrierStallCycles);
    json.endObject();

    json.key("store_fetch").beginObject();
    json.field("count", r.storeFetches);
    json.field("cycles", r.storeFetchCycles);
    json.endObject();

    json.endObject();
}

SimResults
parseSimResultsJson(const std::string &text)
{
    return simResultsFromJson(JsonValue::parse(text));
}

SimResults
simResultsFromJson(const JsonValue &doc)
{
    wbsim_assert(doc.at("schema").string() == "wbsim-sim-results-v1",
                 "not a wbsim-sim-results-v1 document");
    SimResults r;
    r.workload = doc.at("workload").string();
    r.machine = doc.at("machine").string();
    r.instructions = doc.at("instructions").uint();
    r.cycles = doc.at("cycles").uint();
    r.loads = doc.at("loads").uint();
    r.stores = doc.at("stores").uint();

    const JsonValue &stalls = doc.at("stalls");
    r.stalls.bufferFullCycles =
        stalls.at("buffer_full").at("cycles").uint();
    r.stalls.bufferFullEvents =
        stalls.at("buffer_full").at("events").uint();
    r.stalls.l2ReadAccessCycles =
        stalls.at("read_access").at("cycles").uint();
    r.stalls.l2ReadAccessEvents =
        stalls.at("read_access").at("events").uint();
    r.stalls.loadHazardCycles =
        stalls.at("load_hazard").at("cycles").uint();
    r.stalls.loadHazardEvents =
        stalls.at("load_hazard").at("events").uint();
    r.stalls.bufferFullMaxEpisode =
        stalls.at("buffer_full").at("max_episode").uint();
    r.stalls.l2ReadAccessMaxEpisode =
        stalls.at("read_access").at("max_episode").uint();
    r.stalls.loadHazardMaxEpisode =
        stalls.at("load_hazard").at("max_episode").uint();

    const JsonValue &l1 = doc.at("l1");
    r.l1LoadHits = l1.at("load_hits").uint();
    r.l1LoadMisses = l1.at("load_misses").uint();
    r.l1StoreHits = l1.at("store_hits").uint();
    r.l1StoreMisses = l1.at("store_misses").uint();

    const JsonValue &wb = doc.at("wb");
    r.wbMerges = wb.at("merges").uint();
    r.wbAllocations = wb.at("allocations").uint();
    r.wbRetirements = wb.at("retirements").uint();
    r.wbFlushes = wb.at("flushes").uint();
    r.wbHazards = wb.at("hazards").uint();
    r.wbServedLoads = wb.at("served_loads").uint();
    r.wbWordsWritten = wb.at("words_written").uint();
    r.wbEntriesWritten = wb.at("entries_written").uint();
    r.wbMeanOccupancy = wb.at("mean_occupancy").number();

    const JsonValue &l2 = doc.at("l2");
    r.l2ReadHits = l2.at("read_hits").uint();
    r.l2ReadMisses = l2.at("read_misses").uint();
    r.l2WriteHits = l2.at("write_hits").uint();
    r.l2WriteMisses = l2.at("write_misses").uint();

    r.memReads = doc.at("mem").at("reads").uint();
    r.memWriteBacks = doc.at("mem").at("write_backs").uint();
    r.ifetchMisses = doc.at("ifetch").at("misses").uint();
    r.l2IFetchStallCycles =
        doc.at("ifetch").at("l2_stall_cycles").uint();
    r.barriers = doc.at("barrier").at("count").uint();
    r.barrierStallCycles = doc.at("barrier").at("stall_cycles").uint();
    r.storeFetches = doc.at("store_fetch").at("count").uint();
    r.storeFetchCycles = doc.at("store_fetch").at("cycles").uint();
    return r;
}

std::string
simResultsCsvHeader()
{
    return "workload,machine,instructions,cycles,loads,stores,"
           "buffer_full_cycles,buffer_full_events,"
           "read_access_cycles,read_access_events,"
           "load_hazard_cycles,load_hazard_events,"
           "buffer_full_max_episode,read_access_max_episode,"
           "load_hazard_max_episode,"
           "pct_buffer_full,pct_read_access,pct_load_hazard,pct_total,"
           "episodes_per_10k,max_episode,"
           "l1_load_hits,l1_load_misses,l1_store_hits,l1_store_misses,"
           "wb_merges,wb_allocations,wb_retirements,wb_flushes,"
           "wb_hazards,wb_served_loads,wb_words_written,"
           "wb_entries_written,wb_mean_occupancy,"
           "l2_read_hits,l2_read_misses,l2_write_hits,l2_write_misses,"
           "mem_reads,mem_write_backs,"
           "ifetch_misses,ifetch_l2_stall_cycles,"
           "barriers,barrier_stall_cycles,"
           "store_fetches,store_fetch_cycles";
}

void
writeSimResultsCsvRow(std::ostream &os, const SimResults &r)
{
    os << csvField(r.workload) << ',' << csvField(r.machine) << ','
       << r.instructions << ',' << r.cycles << ',' << r.loads << ','
       << r.stores << ',' << r.stalls.bufferFullCycles << ','
       << r.stalls.bufferFullEvents << ','
       << r.stalls.l2ReadAccessCycles << ','
       << r.stalls.l2ReadAccessEvents << ','
       << r.stalls.loadHazardCycles << ','
       << r.stalls.loadHazardEvents << ','
       << r.stalls.bufferFullMaxEpisode << ','
       << r.stalls.l2ReadAccessMaxEpisode << ','
       << r.stalls.loadHazardMaxEpisode << ','
       << csvDouble(r.pctBufferFull()) << ','
       << csvDouble(r.pctL2ReadAccess()) << ','
       << csvDouble(r.pctLoadHazard()) << ','
       << csvDouble(r.pctTotalStalls()) << ','
       << csvDouble(r.stallEpisodesPer10k()) << ','
       << r.maxStallEpisode() << ',' << r.l1LoadHits << ','
       << r.l1LoadMisses << ',' << r.l1StoreHits << ','
       << r.l1StoreMisses << ',' << r.wbMerges << ','
       << r.wbAllocations << ',' << r.wbRetirements << ','
       << r.wbFlushes << ',' << r.wbHazards << ',' << r.wbServedLoads
       << ',' << r.wbWordsWritten << ',' << r.wbEntriesWritten << ','
       << csvDouble(r.wbMeanOccupancy) << ',' << r.l2ReadHits << ','
       << r.l2ReadMisses << ',' << r.l2WriteHits << ','
       << r.l2WriteMisses << ',' << r.memReads << ','
       << r.memWriteBacks << ',' << r.ifetchMisses << ','
       << r.l2IFetchStallCycles << ',' << r.barriers << ','
       << r.barrierStallCycles << ',' << r.storeFetches << ','
       << r.storeFetchCycles << "\n";
}

void
writeSimResultsCsv(std::ostream &os,
                   const std::vector<SimResults> &runs)
{
    os << simResultsCsvHeader() << "\n";
    for (const SimResults &r : runs)
        writeSimResultsCsvRow(os, r);
}

void
writeGridJson(std::ostream &os, const std::string &id,
              const std::string &title,
              const std::vector<std::string> &benchmarks,
              const std::vector<std::string> &variants,
              const std::vector<std::vector<SimResults>> &results,
              const Provenance &provenance)
{
    wbsim_assert(results.size() == benchmarks.size(),
                 "grid rows must match the benchmark labels");
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "wbsim-experiment-grid-v1");
    json.field("id", id);
    json.field("title", title);
    writeProvenance(json, provenance);

    json.key("benchmarks").beginArray();
    for (const std::string &b : benchmarks)
        json.value(b);
    json.endArray();
    json.key("variants").beginArray();
    for (const std::string &v : variants)
        json.value(v);
    json.endArray();

    json.key("cells").beginArray();
    for (std::size_t b = 0; b < results.size(); ++b) {
        wbsim_assert(results[b].size() == variants.size(),
                     "grid columns must match the variant labels");
        for (std::size_t v = 0; v < results[b].size(); ++v) {
            const SimResults &r = results[b][v];
            json.beginObject();
            json.field("benchmark", benchmarks[b]);
            json.field("variant", variants[v]);
            json.field("instructions", r.instructions);
            json.field("cycles", r.cycles);
            json.field("pct_buffer_full", r.pctBufferFull());
            json.field("pct_read_access", r.pctL2ReadAccess());
            json.field("pct_load_hazard", r.pctLoadHazard());
            json.field("pct_total", r.pctTotalStalls());
            json.field("l1_load_hit_rate", r.l1LoadHitRate());
            json.field("wb_merge_rate", r.wbMergeRate());
            json.field("wb_mean_occupancy", r.wbMeanOccupancy);
            json.field("episodes_per_10k", r.stallEpisodesPer10k());
            json.field("max_stall_episode", r.maxStallEpisode());
            json.endObject();
        }
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

void
writeGridCsv(std::ostream &os,
             const std::vector<std::string> &benchmarks,
             const std::vector<std::string> &variants,
             const std::vector<std::vector<SimResults>> &results)
{
    wbsim_assert(results.size() == benchmarks.size(),
                 "grid rows must match the benchmark labels");
    os << "benchmark,variant," << simResultsCsvHeader() << "\n";
    for (std::size_t b = 0; b < results.size(); ++b) {
        wbsim_assert(results[b].size() == variants.size(),
                     "grid columns must match the variant labels");
        for (std::size_t v = 0; v < results[b].size(); ++v) {
            os << csvField(benchmarks[b]) << ','
               << csvField(variants[v]) << ',';
            writeSimResultsCsvRow(os, results[b][v]);
        }
    }
}

void
writeMetricsJson(std::ostream &os, const MetricsRegistry &registry,
                 const Provenance &provenance)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("schema", "wbsim-metrics-v1");
    writeProvenance(json, provenance);
    writeMetricsArray(json, registry);
    json.endObject();
    os << "\n";
}

void
writeMetricsArray(JsonWriter &json, const MetricsRegistry &registry)
{
    json.key("metrics").beginArray();
    for (std::size_t i = 0; i < registry.size(); ++i) {
        json.beginObject();
        json.field("name", registry.name(i));
        json.field("kind", metricKindName(registry.kind(i)));
        switch (registry.kind(i)) {
          case MetricKind::Counter:
            json.field("value", registry.counterValue(i));
            break;
          case MetricKind::Gauge:
            json.field("value", registry.gaugeValue(i));
            break;
          case MetricKind::Histogram: {
            const stats::Histogram &h = registry.histogramValue(i);
            json.field("n", h.samples());
            json.field("mean", h.mean());
            json.field("min", h.minValue());
            json.field("max", h.maxValue());
            json.field("p50", h.quantile(0.50));
            json.field("p95", h.quantile(0.95));
            // Tail quantiles carry an honesty flag: when the rank
            // lands in the overflow bucket the value is only a lower
            // bound clamped to the observed maximum.
            stats::Quantile p99 = h.quantileWithOverflow(0.99);
            stats::Quantile p999 = h.quantileWithOverflow(0.999);
            json.field("p99", p99.value);
            json.field("p99_overflowed", p99.overflowed);
            json.field("p999", p999.value);
            json.field("p999_overflowed", p999.overflowed);
            json.field("overflow_count", h.overflowCount());
            json.field("bucket_width", h.bucketWidth());
            json.key("buckets").beginArray();
            for (std::size_t b = 0; b <= h.buckets(); ++b)
                json.value(h.bucket(b));
            json.endArray();
            break;
          }
        }
        json.endObject();
    }
    json.endArray();
}

void
writeMetricsCsv(std::ostream &os, const MetricsRegistry &registry)
{
    os << "name,kind,n,value,mean,min,max,p50,p95,p99,p999,"
          "tail_overflowed\n";
    for (std::size_t i = 0; i < registry.size(); ++i) {
        os << csvField(registry.name(i)) << ','
           << metricKindName(registry.kind(i)) << ',';
        switch (registry.kind(i)) {
          case MetricKind::Counter:
            os << 1 << ',' << registry.counterValue(i)
               << ",,,,,,,,\n";
            break;
          case MetricKind::Gauge:
            os << 1 << ',' << registry.gaugeValue(i) << ",,,,,,,,\n";
            break;
          case MetricKind::Histogram: {
            const stats::Histogram &h = registry.histogramValue(i);
            stats::Quantile p99 = h.quantileWithOverflow(0.99);
            stats::Quantile p999 = h.quantileWithOverflow(0.999);
            os << h.samples() << ",," << csvDouble(h.mean()) << ','
               << h.minValue() << ',' << h.maxValue() << ','
               << csvDouble(h.quantile(0.50)) << ','
               << csvDouble(h.quantile(0.95)) << ','
               << csvDouble(p99.value) << ','
               << csvDouble(p999.value) << ','
               << (p99.overflowed || p999.overflowed ? 1 : 0) << "\n";
            break;
          }
        }
    }
}

} // namespace wbsim::obs
