#include "serve/wire.hh"

#include <sys/socket.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/config.hh"
#include "util/logging.hh"

namespace wbsim::serve
{
namespace
{

/** Name tables (shared by *Name() and tryParse*()) so the two sides
 *  of the protocol can never disagree on a spelling. */
template <typename Enum>
struct WireName
{
    Enum value;
    const char *name;
};

constexpr WireName<FrameResult> kFrameResultNames[] = {
    {FrameResult::Ok, "ok"},
    {FrameResult::Eof, "eof"},
    {FrameResult::BadMagic, "bad-magic"},
    {FrameResult::TooLarge, "too-large"},
    {FrameResult::Error, "error"},
};

constexpr WireName<RequestType> kRequestTypeNames[] = {
    {RequestType::Sweep, "sweep"},
    {RequestType::Ping, "ping"},
    {RequestType::Stats, "stats"},
    {RequestType::Shutdown, "shutdown"},
};

constexpr WireName<ResponseType> kResponseTypeNames[] = {
    {ResponseType::Results, "results"},
    {ResponseType::Pong, "pong"},
    {ResponseType::Stats, "stats"},
    {ResponseType::RetryAfter, "retry-after"},
    {ResponseType::Error, "error"},
    {ResponseType::Bye, "bye"},
};

template <typename Enum, std::size_t N>
const char *
nameOf(const WireName<Enum> (&table)[N], Enum value)
{
    for (const auto &row : table)
        if (row.value == value)
            return row.name;
    return "?";
}

template <typename Enum, std::size_t N>
bool
tryParseName(const WireName<Enum> (&table)[N], std::string_view name,
             Enum &out)
{
    for (const auto &row : table) {
        if (row.name == name) {
            out = row.value;
            return true;
        }
    }
    return false;
}

enum class IoResult : std::uint8_t
{
    Ok,
    Eof,
    Error,
};

/** Blocking read of exactly @p size bytes; Eof only when the peer
 *  closed cleanly before the first byte. */
IoResult
readFully(int fd, char *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = ::recv(fd, data + done, size - done, 0);
        if (n == 0)
            return done == 0 ? IoResult::Eof : IoResult::Error;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return IoResult::Error;
        }
        done += std::size_t(n);
    }
    return IoResult::Ok;
}

/** Blocking write of exactly @p size bytes. MSG_NOSIGNAL: a peer
 *  that hangs up must produce an error return, not SIGPIPE. */
bool
writeFully(int fd, const char *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n =
            ::send(fd, data + done, size - done, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += std::size_t(n);
    }
    return true;
}

/**
 * Strict member extraction from one JSON object: a field that is
 * absent keeps its default, a field that is present must have the
 * right JSON type and range, and finish() rejects keys the schema
 * does not know — a misspelled knob must fail loudly, not silently
 * simulate the baseline.
 *
 * Claiming allocates nothing: claimed keys are the schema's string
 * literals, kept in a fixed table, and the location prefix of an
 * error ("cells[3]") is only rendered when one is reported.
 */
class FieldReader
{
  public:
    /** Sentinel for @p index: the location is @p where alone. */
    static constexpr std::size_t kNoIndex = ~std::size_t{0};

    FieldReader(const obs::JsonValue &value, std::string_view where,
                std::string &error, std::size_t index = kNoIndex)
        : value_(value), where_(where), index_(index), error_(error)
    {
        ok_ = value_.isObject();
        if (!ok_)
            fail("must be a JSON object");
    }

    bool ok() const { return ok_; }

    template <typename T>
    bool
    uintField(const char *key, T &out,
              std::uint64_t max = std::numeric_limits<T>::max())
    {
        const obs::JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isUint())
            return fail(std::string(key)
                        + " must be an unsigned integer");
        std::uint64_t raw = v->uint();
        if (raw > max)
            return fail(std::string(key) + " out of range");
        out = static_cast<T>(raw);
        return true;
    }

    bool
    boolField(const char *key, bool &out)
    {
        const obs::JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isBool())
            return fail(std::string(key) + " must be a boolean");
        out = v->boolean();
        return true;
    }

    bool
    doubleField(const char *key, double &out)
    {
        const obs::JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isNumber())
            return fail(std::string(key) + " must be a number");
        // 1e999 parses to infinity, which JSON cannot carry back.
        if (!std::isfinite(v->number()))
            return fail(std::string(key) + " must be finite");
        out = v->number();
        return true;
    }

    bool
    stringField(const char *key, std::string &out)
    {
        const obs::JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isString())
            return fail(std::string(key) + " must be a string");
        out = v->string();
        return true;
    }

    template <typename Enum, typename TryParse>
    bool
    enumField(const char *key, Enum &out, TryParse tryParse)
    {
        const obs::JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isString())
            return fail(std::string(key) + " must be a string");
        if (!tryParse(v->string(), out))
            return fail(std::string(key) + ": unknown name \""
                        + v->string() + "\"");
        return true;
    }

    /** The raw member, claimed as known (nullptr when absent). */
    const obs::JsonValue *
    claim(const char *key)
    {
        if (!ok_)
            return nullptr;
        wbsim_assert(known_count_ < known_.size(),
                     "FieldReader schema has more keys than its table");
        known_[known_count_++] = key;
        const obs::JsonValue *member = value_.find(key);
        found_ += member != nullptr;
        return member;
    }

    /** Reject any member the schema did not claim, naming the
     *  alphabetically first. */
    bool
    finish()
    {
        if (!ok_)
            return false;
        const auto &members = value_.object();
        if (found_ == members.size())
            return true; // every member claimed (keys are distinct)
        const std::string *unknown = nullptr;
        for (const auto &member : members) {
            if (isKnown(member.key))
                continue;
            if (unknown == nullptr || member.key < *unknown)
                unknown = &member.key;
        }
        if (unknown == nullptr)
            return true; // only repeats of claimed keys
        return fail("unknown key \"" + *unknown + "\"");
    }

    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = where_;
            if (index_ != kNoIndex)
                error_.append("[").append(std::to_string(index_))
                    .append("]");
            error_ += ": " + what;
        }
        ok_ = false;
        return false;
    }

  private:
    bool
    isKnown(std::string_view key) const
    {
        for (std::size_t i = 0; i < known_count_; ++i)
            if (known_[i] == key)
                return true;
        return false;
    }

    const obs::JsonValue &value_;
    std::string_view where_;
    std::size_t index_;
    std::string &error_;
    /** Keys claimed so far; the widest schema (write_buffer) has 17. */
    std::array<std::string_view, 24> known_;
    std::size_t known_count_ = 0;
    /** Claimed keys that were present. */
    std::size_t found_ = 0;
    bool ok_ = true;
};

void
geometryToJson(obs::JsonWriter &json, const CacheGeometry &geometry)
{
    json.beginObject();
    json.field("size_bytes", geometry.sizeBytes);
    json.field("line_bytes", geometry.lineBytes);
    json.field("associativity", geometry.associativity);
    json.endObject();
}

bool
geometryFromJson(const obs::JsonValue &value, std::string_view where,
                 CacheGeometry &out, std::string &error)
{
    FieldReader reader(value, where, error);
    reader.uintField("size_bytes", out.sizeBytes);
    reader.uintField("line_bytes", out.lineBytes);
    reader.uintField("associativity", out.associativity);
    return reader.finish();
}

void
writeBufferToJson(obs::JsonWriter &json, const WriteBufferConfig &wb)
{
    json.beginObject();
    json.field("kind", bufferKindName(wb.kind));
    json.field("depth", wb.depth);
    json.field("entry_bytes", wb.entryBytes);
    json.field("word_bytes", wb.wordBytes);
    json.field("coalescing", wb.coalescing);
    json.field("retirement_mode",
               retirementModeName(wb.retirementMode));
    json.field("retirement_order",
               retirementOrderName(wb.retirementOrder));
    json.field("high_water_mark", wb.highWaterMark);
    json.field("fixed_rate_period", wb.fixedRatePeriod);
    json.field("paced_refill_period", wb.pacedRefillPeriod);
    json.field("paced_burst", wb.pacedBurst);
    json.field("age_timeout", wb.ageTimeout);
    json.field("hazard_policy",
               loadHazardPolicyName(wb.hazardPolicy));
    json.field("write_priority_threshold",
               wb.writePriorityThreshold);
    json.field("wb_hit_extra_cycles", wb.wbHitExtraCycles);
    json.field("naive_scan", wb.naiveScan);
    json.field("cross_check", wb.crossCheck);
    json.endObject();
}

bool
writeBufferFromJson(const obs::JsonValue &value, WriteBufferConfig &out,
                    std::string &error)
{
    FieldReader reader(value, "machine.write_buffer", error);
    reader.enumField("kind", out.kind,
                     [](std::string_view name, BufferKind &kind) {
                         return tryParseBufferKind(name, kind);
                     });
    reader.uintField("depth", out.depth);
    reader.uintField("entry_bytes", out.entryBytes);
    reader.uintField("word_bytes", out.wordBytes);
    reader.boolField("coalescing", out.coalescing);
    reader.enumField("retirement_mode", out.retirementMode,
                     [](std::string_view name, RetirementMode &mode) {
                         return tryParseRetirementMode(name, mode);
                     });
    reader.enumField(
        "retirement_order", out.retirementOrder,
        [](std::string_view name, RetirementOrder &order) {
            return tryParseRetirementOrder(name, order);
        });
    reader.uintField("high_water_mark", out.highWaterMark);
    reader.uintField("fixed_rate_period", out.fixedRatePeriod);
    reader.uintField("paced_refill_period", out.pacedRefillPeriod);
    reader.uintField("paced_burst", out.pacedBurst);
    reader.uintField("age_timeout", out.ageTimeout);
    reader.enumField(
        "hazard_policy", out.hazardPolicy,
        [](std::string_view name, LoadHazardPolicy &policy) {
            return tryParseLoadHazardPolicy(name, policy);
        });
    reader.uintField("write_priority_threshold",
                     out.writePriorityThreshold);
    reader.uintField("wb_hit_extra_cycles", out.wbHitExtraCycles);
    reader.boolField("naive_scan", out.naiveScan);
    reader.boolField("cross_check", out.crossCheck);
    return reader.finish();
}

bool
decodeCell(const obs::JsonValue &value, std::size_t index,
           CellSpec &out, std::string &error)
{
    FieldReader reader(value, "cells", error, index);
    reader.stringField("benchmark", out.benchmark);
    reader.uintField("seed", out.seed);
    reader.uintField("instructions", out.instructions);
    reader.uintField("warmup", out.warmup);
    if (const obs::JsonValue *machine = reader.claim("machine")) {
        if (!machineConfigFromJson(*machine, out.machine, error))
            return reader.fail(error.empty() ? "bad machine" : error);
    }
    if (!reader.finish())
        return false;
    if (out.benchmark.empty())
        return reader.fail("benchmark is required");
    return true;
}

/** Open a response object: its schema and type members. */
void
beginResponse(obs::JsonWriter &json, ResponseType type)
{
    json.beginObject();
    json.field("schema", kResponseSchema);
    json.field("type", responseTypeName(type));
}

} // namespace

const char *
frameResultName(FrameResult result)
{
    return nameOf(kFrameResultNames, result);
}

const char *
requestTypeName(RequestType type)
{
    return nameOf(kRequestTypeNames, type);
}

bool
tryParseRequestType(std::string_view name, RequestType &out)
{
    return tryParseName(kRequestTypeNames, name, out);
}

const char *
responseTypeName(ResponseType type)
{
    return nameOf(kResponseTypeNames, type);
}

bool
tryParseResponseType(std::string_view name, ResponseType &out)
{
    return tryParseName(kResponseTypeNames, name, out);
}

FrameResult
readFrame(int fd, std::string &payload, std::size_t maxBytes)
{
    char header[8];
    IoResult got = readFully(fd, header, sizeof header);
    if (got == IoResult::Eof)
        return FrameResult::Eof;
    if (got != IoResult::Ok)
        return FrameResult::Error;
    if (std::memcmp(header, kFrameMagic, sizeof kFrameMagic) != 0)
        return FrameResult::BadMagic;
    std::uint32_t length = (std::uint32_t(std::uint8_t(header[4])) << 24)
                           | (std::uint32_t(std::uint8_t(header[5])) << 16)
                           | (std::uint32_t(std::uint8_t(header[6])) << 8)
                           | std::uint32_t(std::uint8_t(header[7]));
    if (length > maxBytes)
        return FrameResult::TooLarge;
    payload.resize(length);
    if (length > 0
        && readFully(fd, payload.data(), length) != IoResult::Ok)
        return FrameResult::Error;
    return FrameResult::Ok;
}

bool
writeFrame(int fd, std::string_view payload)
{
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        return false;
    std::uint32_t length = std::uint32_t(payload.size());
    std::string frame;
    frame.reserve(sizeof kFrameMagic + 4 + payload.size());
    frame.append(kFrameMagic, sizeof kFrameMagic);
    frame.push_back(char(length >> 24));
    frame.push_back(char(length >> 16));
    frame.push_back(char(length >> 8));
    frame.push_back(char(length));
    frame.append(payload);
    return writeFully(fd, frame.data(), frame.size());
}

void
machineConfigToJson(obs::JsonWriter &json, const MachineConfig &machine)
{
    json.beginObject();
    json.key("l1d");
    geometryToJson(json, machine.l1d);
    json.field("perfect_icache", machine.perfectICache);
    json.key("l1i");
    geometryToJson(json, machine.l1i);
    json.field("perfect_l2", machine.perfectL2);
    json.key("l2");
    geometryToJson(json, machine.l2);
    json.field("l2_latency", machine.l2Latency);
    json.field("mem_latency", machine.memLatency);
    json.field("l2_datapath_bytes", machine.l2DatapathBytes);
    json.field("issue_width", machine.issueWidth);
    json.field("bubble_probability", machine.bubbleProbability);
    json.field("l1_write_allocate", machine.l1WriteAllocate);
    json.key("write_buffer");
    writeBufferToJson(json, machine.writeBuffer);
    // Topology fields only for multi-core machines: single-core
    // payloads (and their golden fixtures) stay byte-identical, and
    // pre-topology peers that reject unknown fields keep working.
    if (machine.cores != 1) {
        json.field("cores", machine.cores);
        json.field("bus_discipline",
                   busDisciplineName(machine.busDiscipline));
    }
    json.endObject();
}

bool
machineConfigFromJson(const obs::JsonValue &value, MachineConfig &out,
                      std::string &error)
{
    FieldReader reader(value, "machine", error);
    if (const obs::JsonValue *l1d = reader.claim("l1d")) {
        if (!geometryFromJson(*l1d, "machine.l1d", out.l1d, error))
            return reader.fail(error);
    }
    reader.boolField("perfect_icache", out.perfectICache);
    if (const obs::JsonValue *l1i = reader.claim("l1i")) {
        if (!geometryFromJson(*l1i, "machine.l1i", out.l1i, error))
            return reader.fail(error);
    }
    reader.boolField("perfect_l2", out.perfectL2);
    if (const obs::JsonValue *l2 = reader.claim("l2")) {
        if (!geometryFromJson(*l2, "machine.l2", out.l2, error))
            return reader.fail(error);
    }
    reader.uintField("l2_latency", out.l2Latency);
    reader.uintField("mem_latency", out.memLatency);
    reader.uintField("l2_datapath_bytes", out.l2DatapathBytes);
    reader.uintField("issue_width", out.issueWidth);
    reader.doubleField("bubble_probability", out.bubbleProbability);
    reader.boolField("l1_write_allocate", out.l1WriteAllocate);
    if (const obs::JsonValue *wb = reader.claim("write_buffer")) {
        if (!writeBufferFromJson(*wb, out.writeBuffer, error))
            return reader.fail(error);
    }
    reader.uintField("cores", out.cores);
    reader.enumField("bus_discipline", out.busDiscipline,
                     [](std::string_view name, BusDiscipline &out_d) {
                         return tryParseBusDiscipline(name, out_d);
                     });
    return reader.finish();
}

std::string
encodeRequest(const Request &request)
{
    std::string out;
    obs::JsonWriter json(out, 0);
    json.beginObject();
    json.field("schema", kRequestSchema);
    json.field("type", requestTypeName(request.type));
    if (request.type == RequestType::Sweep) {
        json.field("priority", std::uint64_t(request.priority));
        json.key("cells");
        json.beginArray();
        for (const CellSpec &cell : request.cells) {
            json.beginObject();
            json.field("benchmark", cell.benchmark);
            json.field("seed", cell.seed);
            json.field("instructions", cell.instructions);
            json.field("warmup", cell.warmup);
            json.key("machine");
            machineConfigToJson(json, cell.machine);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    return out;
}

bool
decodeRequest(const std::string &payload, Request &out,
              std::string &error)
{
    // fail() keeps the innermost (first) message, so start clean —
    // a stale message from the caller's previous decode must not
    // mask this one's.
    error.clear();
    obs::JsonValue doc;
    if (!obs::JsonValue::tryParse(payload, doc, error))
        return false;
    FieldReader reader(doc, "request", error);
    std::string schema;
    if (!reader.stringField("schema", schema))
        return false;
    if (schema != kRequestSchema)
        return reader.fail("unsupported schema \"" + schema
                           + "\" (this server speaks "
                           + kRequestSchema + ")");
    std::string type;
    if (!reader.stringField("type", type))
        return false;
    if (!tryParseRequestType(type, out.type))
        return reader.fail("unknown request type \"" + type + "\"");
    reader.uintField("priority", out.priority);
    if (const obs::JsonValue *cells = reader.claim("cells")) {
        if (!cells->isArray())
            return reader.fail("cells must be an array");
        std::size_t index = 0;
        for (const obs::JsonValue &cell : cells->array()) {
            CellSpec spec;
            if (!decodeCell(cell, index, spec, error))
                return false;
            out.cells.push_back(std::move(spec));
            ++index;
        }
    }
    if (!reader.finish())
        return false;
    if (out.type == RequestType::Sweep && out.cells.empty())
        return reader.fail("sweep request with no cells");
    return true;
}

std::string
encodeResultToken(std::string_view resultJson)
{
    // A root string value: value()'s quoting and escaper, alone.
    std::string token;
    token.reserve(resultJson.size() * 5 / 4 + 8);
    obs::JsonWriter(token, 0).value(resultJson);
    return token;
}

std::string
encodeResults(const std::vector<ResultCellView> &cells)
{
    std::size_t bytes = 128;
    for (const ResultCellView &cell : cells)
        bytes += 64 + cell.benchmark.size() + cell.token.size();
    std::string out;
    out.reserve(bytes);
    obs::JsonWriter json(out, 0);
    beginResponse(json, ResponseType::Results);
    json.key("cells");
    json.beginArray();
    for (const ResultCellView &cell : cells) {
        json.beginObject();
        json.field("benchmark", cell.benchmark);
        json.field("cache_hit", cell.cacheHit);
        json.key("result_json").rawValue(cell.token);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return out;
}

std::string
encodeResponse(const Response &response)
{
    if (response.type == ResponseType::Results) {
        std::vector<std::string> tokens;
        tokens.reserve(response.cells.size());
        std::vector<ResultCellView> cells;
        cells.reserve(response.cells.size());
        for (const CellResult &cell : response.cells) {
            tokens.push_back(encodeResultToken(cell.resultJson));
            cells.push_back({cell.benchmark, cell.cacheHit,
                             tokens.back()});
        }
        return encodeResults(cells);
    }
    std::string out;
    out.reserve(256 + response.error.size()
                + response.statsJson.size() * 5 / 4);
    obs::JsonWriter json(out, 0);
    beginResponse(json, response.type);
    switch (response.type) {
    case ResponseType::RetryAfter:
        json.field("retry_after_ms",
                   std::uint64_t(response.retryAfterMs));
        break;
    case ResponseType::Error:
        json.field("error", response.error);
        break;
    case ResponseType::Stats:
        json.field("stats_json", response.statsJson);
        break;
    case ResponseType::Results:
    case ResponseType::Pong:
    case ResponseType::Bye:
        break;
    }
    json.endObject();
    return out;
}

bool
decodeResponse(const std::string &payload, Response &out,
               std::string &error)
{
    error.clear(); // see decodeRequest
    obs::JsonValue doc;
    if (!obs::JsonValue::tryParse(payload, doc, error))
        return false;
    FieldReader reader(doc, "response", error);
    std::string schema;
    if (!reader.stringField("schema", schema))
        return false;
    if (schema != kResponseSchema)
        return reader.fail("unsupported schema \"" + schema
                           + "\" (this client speaks "
                           + kResponseSchema + ")");
    std::string type;
    if (!reader.stringField("type", type))
        return false;
    if (!tryParseResponseType(type, out.type))
        return reader.fail("unknown response type \"" + type + "\"");
    reader.uintField("retry_after_ms", out.retryAfterMs);
    reader.stringField("error", out.error);
    reader.stringField("stats_json", out.statsJson);
    if (const obs::JsonValue *cells = reader.claim("cells")) {
        if (!cells->isArray())
            return reader.fail("cells must be an array");
        std::size_t index = 0;
        for (const obs::JsonValue &value : cells->array()) {
            FieldReader cell(value, "cells", error, index);
            CellResult result;
            cell.stringField("benchmark", result.benchmark);
            cell.boolField("cache_hit", result.cacheHit);
            cell.stringField("result_json", result.resultJson);
            if (!cell.finish())
                return false;
            out.cells.push_back(std::move(result));
            ++index;
        }
    }
    return reader.finish();
}

} // namespace wbsim::serve
