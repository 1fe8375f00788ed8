#include "obs/export.hh"

#include <array>
#include <iomanip>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "util/logging.hh"

namespace wbsim::obs
{

namespace
{

constexpr const char *kSimResultsSchema = "wbsim-sim-results-v1";

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
    json.field("schema", kSimResultsSchema);
    writeProvenance(json, provenance);
    // Group by group in document order. The derived rates and
    // percentages are written so the artifact plots without
    // recomputation; the reader skips them and re-derives them from
    // the stored fields.
    bool inStalls = false;
    for (std::size_t g = 0; g < std::size(kResultGroups); ++g) {
        const ResultGroupKey &group = kResultGroups[g];
        if (group.inStalls != inStalls) {
            if (inStalls)
                json.endObject();
            else
                json.key("stalls").beginObject();
            inStalls = group.inStalls;
        }
        if (group.key)
            json.key(group.key).beginObject();
        SimResults::forEachField([&](ResultGroup in, const char *key,
                                     const char *, Combine, auto access) {
            if (std::size_t(in) == g)
                json.field(key, resultField(r, access));
        });
        if (group.key)
            json.endObject();
    }
    json.endObject();
}

namespace
{

/** One object of a results document as the reader walks it: its
 *  location in errors, and its members in the order writers emit
 *  them. Each member has the rank of a failure reported on it: its
 *  stored field's place in SimResults::forEachField() (an object: its
 *  first field's), after the schema (0) and a missing "stalls" (1).
 *  The first failure by rank is the one reported, as a walk of the
 *  field list meets them. */
struct ResultsObject
{
    enum class Kind : std::uint8_t
    {
        Schema,
        Object,
        Field,
    };

    struct Member
    {
        std::size_t rank;
        Kind kind;
        /** Object: its index in the schema. */
        std::size_t object = 0;
        /** Field: where it is stored (one is set). */
        std::string SimResults::*text = nullptr;
        double SimResults::*real = nullptr;
        Count SimResults::*count = nullptr;
        Count StallStats::*stall = nullptr;
    };

    const char *where = "result";
    const char *member = nullptr;
    std::vector<std::string_view> keys;
    std::vector<Member> members;

    Member &
    add(std::string_view key, std::size_t rank, Kind kind)
    {
        keys.push_back(key);
        return members.emplace_back(Member{rank, kind});
    }
};

/** The root (index 0, ResultGroup::Root), each group by its
 *  ResultGroup, and the "stalls" object last. */
using ResultsSchema =
    std::array<ResultsObject, std::size(kResultGroups) + 1>;
constexpr std::size_t kStallsObject = std::size(kResultGroups);

const ResultsSchema &
resultsSchema()
{
    static const ResultsSchema schema = [] {
        using Kind = ResultsObject::Kind;
        ResultsSchema out;
        out[0].add("schema", 0, Kind::Schema);
        out[0].add("stalls", 1, Kind::Object).object = kStallsObject;
        out[kStallsObject].where = "stalls";
        std::size_t rank = 2;
        SimResults::forEachField([&](ResultGroup in, const char *key,
                                     const char *, Combine, auto access) {
            using Access = decltype(access);
            if constexpr (std::is_member_object_pointer_v<Access>) {
                const auto index = std::size_t(in);
                const ResultGroupKey &group = kResultGroups[index];
                ResultsObject &object = out[index];
                if (group.key && object.keys.empty()) {
                    // A group's first field: the group joins its parent.
                    object.where = group.inStalls ? "stalls" : group.key;
                    object.member = group.inStalls ? group.key : nullptr;
                    out[group.inStalls ? kStallsObject : 0]
                        .add(group.key, rank, Kind::Object)
                        .object = index;
                }
                ResultsObject::Member &field =
                    object.add(key, rank++, Kind::Field);
                if constexpr (std::is_same_v<Access,
                                             std::string SimResults::*>)
                    field.text = access;
                else if constexpr (std::is_same_v<Access,
                                                  double SimResults::*>)
                    field.real = access;
                else if constexpr (std::is_same_v<Access,
                                                  Count SimResults::*>)
                    field.count = access;
                else
                    field.stall = access;
            }
        });
        return out;
    }();
    return schema;
}

/** The failure reported so far, by rank. */
struct FirstFailure
{
    std::size_t rank = FieldReader::kNoIndex;
    std::string message;
};

/** Read the object that is @p json's next value as schema object
 *  @p index into @p r. Every member it lists is required; unknown and
 *  derived members are stepped over. */
void
readResultsObject(JsonReader &json, std::size_t index, SimResults &r,
                  FirstFailure &first)
{
    using Kind = ResultsObject::Kind;
    const ResultsObject &object = resultsSchema()[index];
    std::string error;
    FieldReader reader(json, object.keys, object.where, error,
                       FieldReader::kNoIndex, object.member);
    reader.members([&](std::size_t at) {
        const ResultsObject::Member &member = object.members[at];
        const char *key = object.keys[at].data();
        switch (member.kind) {
          case Kind::Schema: {
            std::string schema;
            if (reader.stringField(key, schema)
                && schema != kSimResultsSchema)
                reader.fail("unsupported schema \"" + schema + "\"");
            break;
          }
          case Kind::Object:
            readResultsObject(json, member.object, r, first);
            break;
          case Kind::Field:
            if (member.text)
                reader.stringField(key, r.*member.text);
            else if (member.real)
                reader.doubleField(key, r.*member.real);
            else if (member.count)
                reader.uintField(key, r.*member.count);
            else
                reader.uintField(key, r.stalls.*member.stall);
            break;
        }
    });
    reader.requireAll();
    if (!reader.ok()) {
        const std::size_t rank = object.members[reader.failedField()].rank;
        if (rank < first.rank) {
            first.rank = rank;
            first.message = std::move(error);
        }
    }
}

} // namespace

SimResults
parseSimResultsJson(const std::string &text)
{
    SimResults r;
    std::string error;
    if (!simResultsFromJson(text, r, error))
        wbsim_fatal("bad ", kSimResultsSchema, " document: ", error);
    return r;
}

bool
simResultsFromJson(std::string_view text, SimResults &out,
                   std::string &error)
{
    error.clear();
    SimResults r;
    JsonReader json(text);
    if (!json.read(error, [&] {
            FirstFailure first;
            readResultsObject(json, 0, r, first);
            error = std::move(first.message);
            return error.empty();
        }))
        return false;
    out = std::move(r);
    return true;
}

std::string
simResultsCsvHeader()
{
    std::string header;
    SimResults::forEachField(
        [&](ResultGroup, const char *, const char *csv, Combine, auto) {
            if (csv)
                header.append(header.empty() ? "" : ",").append(csv);
        });
    return header;
}

void
writeSimResultsCsvRow(std::ostream &os, const SimResults &r)
{
    const char *separator = "";
    SimResults::forEachField([&](ResultGroup, const char *,
                                 const char *csv, Combine, auto access) {
        if (!csv)
            return;
        os << separator;
        separator = ",";
        const auto &value = resultField(r, access);
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>)
            os << csvField(value);
        else if constexpr (std::is_floating_point_v<T>)
            os << csvDouble(value);
        else
            os << value;
    });
    os << "\n";
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
