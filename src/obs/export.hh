/**
 * @file
 * Machine-readable run artifacts: JSON and CSV emitters for
 * SimResults, MetricsRegistry contents, and whole experiment grids,
 * each stamped with a provenance header so an artifact is traceable
 * to the exact machine configuration, seed, and build that produced
 * it. parseSimResultsJson() round-trips the JSON artifact back into
 * a SimResults, field-for-field.
 */

#ifndef WBSIM_OBS_EXPORT_HH
#define WBSIM_OBS_EXPORT_HH

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sim/results.hh"
#include "util/types.hh"

namespace wbsim::obs
{

/**
 * Where an artifact came from: enough to reproduce the run. Stamped
 * into every JSON export under the "provenance" key.
 */
struct Provenance
{
    /** MachineConfig::stateFingerprint() of the simulated machine. */
    std::uint64_t machineFingerprint = 0;
    /** MachineConfig::describe() of the simulated machine. */
    std::string machine;
    /** Workload generator seed. */
    std::uint64_t seed = 0;
    /** Measured instructions. */
    Count instructions = 0;
    /** Warmup instructions before the measurement window. */
    Count warmup = 0;
    /** Compiler and assertion mode; defaults to this build's. */
    std::string buildFlags = defaultBuildFlags();

    /** "gcc 13.2.0 release" / "... debug-assertions" for this build. */
    static std::string defaultBuildFlags();
};

/** Emit the "provenance" member into an open JSON object. */
void writeProvenance(JsonWriter &json, const Provenance &provenance);

/** @name SimResults artifacts. */
/// @{
/** One run as a JSON document (schema wbsim-sim-results-v1). The
 *  figure pipeline pins these bytes (the obs goldens), so the writer
 *  reads no clock, RNG or hash order. */
void
writeSimResultsJson(std::ostream &os, const SimResults &results,
                    const Provenance &provenance);

/** The same document appended to @p out (the wbsim-serve per-cell
 *  payloads, which skip the stream). */
void
writeSimResultsJson(std::string &out, const SimResults &results,
                    const Provenance &provenance);

/**
 * The body of a wbsim-sim-results-v1 document as one JSON object
 * written into an already-open @p json stream. This is the shared
 * renderer behind writeSimResultsJson() and the wbsim-serve per-cell
 * payloads, so a served cell is byte-identical to a local artifact.
 */
void writeSimResultsObject(JsonWriter &json, const SimResults &results,
                           const Provenance &provenance);

/**
 * Re-parse a writeSimResultsJson() document. Every stored field is
 * restored exactly (doubles included); derived fields (rates, stall
 * percentages) are re-derived. fatal() on malformed input: a trusted
 * artifact that does not parse is a bug.
 */
SimResults parseSimResultsJson(const std::string &text);

/**
 * Rebuild a SimResults from the wbsim-sim-results-v1 document @p text
 * in one pass with JsonReader (the serve client's path, so non-fatal).
 * False, with an error naming the member's path, when the text is not
 * JSON or a stored member is missing or mistyped; unknown members and
 * the derived ones are ignored. @p out is only written on success.
 */
bool simResultsFromJson(std::string_view text, SimResults &out,
                        std::string &error);

/** The CSV column header shared by all SimResults CSV emitters. */
std::string simResultsCsvHeader();

/** One SimResults as a CSV row matching simResultsCsvHeader(). */
void writeSimResultsCsvRow(std::ostream &os, const SimResults &results);

/** Header plus one row per run. */
void writeSimResultsCsv(std::ostream &os,
                        const std::vector<SimResults> &runs);
/// @}

/** @name Experiment-grid artifacts (results[benchmark][variant]). */
/// @{
/** A whole grid as JSON (schema wbsim-experiment-grid-v1). */
void writeGridJson(std::ostream &os, const std::string &id,
                   const std::string &title,
                   const std::vector<std::string> &benchmarks,
                   const std::vector<std::string> &variants,
                   const std::vector<std::vector<SimResults>> &results,
                   const Provenance &provenance);

/** A whole grid as CSV: benchmark,variant + the SimResults columns. */
void writeGridCsv(std::ostream &os,
                  const std::vector<std::string> &benchmarks,
                  const std::vector<std::string> &variants,
                  const std::vector<std::vector<SimResults>> &results);
/// @}

/** @name MetricsRegistry artifacts. */
/// @{
/**
 * Registry contents as JSON (schema wbsim-metrics-v1): counters and
 * gauges as scalars, histograms with mean/min/max/p50/p95/p99 and
 * raw bucket counts.
 */
void writeMetricsJson(std::ostream &os, const MetricsRegistry &registry,
                      const Provenance &provenance);

/** The "metrics" array of a wbsim-metrics-v1 document written into
 *  an already-open @p json stream (shared with wbsim-serve stats
 *  responses). */
void writeMetricsArray(JsonWriter &json, const MetricsRegistry &registry);

/** Registry contents as CSV (name, kind, n, value/mean, quantiles). */
void writeMetricsCsv(std::ostream &os,
                     const MetricsRegistry &registry);
/// @}

} // namespace wbsim::obs

#endif // WBSIM_OBS_EXPORT_HH
