#include "serve/wire.hh"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/enum_names.hh"

namespace wbsim::serve
{
namespace
{

/** Name tables (shared by *Name() and tryParse*()) so the two sides
 *  of the protocol can never disagree on a spelling. */
constexpr EnumName<FrameResult> kFrameResultNames[] = {
    {FrameResult::Ok, "ok"},
    {FrameResult::Eof, "eof"},
    {FrameResult::BadMagic, "bad-magic"},
    {FrameResult::TooLarge, "too-large"},
    {FrameResult::Error, "error"},
};

constexpr EnumName<RequestType> kRequestTypeNames[] = {
    {RequestType::Sweep, "sweep"},
    {RequestType::Ping, "ping"},
    {RequestType::Stats, "stats"},
    {RequestType::Shutdown, "shutdown"},
};

constexpr EnumName<ResponseType> kResponseTypeNames[] = {
    {ResponseType::Results, "results"},
    {ResponseType::Pong, "pong"},
    {ResponseType::Stats, "stats"},
    {ResponseType::RetryAfter, "retry-after"},
    {ResponseType::Error, "error"},
    {ResponseType::Bye, "bye"},
};

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

using obs::FieldReader;

/** @name An enum field's extra visit() arguments: (name, tryParse). */
/// @{
constexpr auto enumName = [](auto name, auto) { return name; };
constexpr auto enumParser = [](auto, auto tryParse) { return tryParse; };
/// @}

/** A visitor that writes each listed field of @p record as a member
 *  of the open object, a nested record as an object. */
template <typename Record>
auto
fieldWriter(obs::JsonWriter &json, const Record &record)
{
    return [&json, &record](const char *key, auto member, auto... enums) {
        const auto &value = record.*member;
        using T = std::decay_t<decltype(value)>;
        json.key(key);
        if constexpr (std::is_class_v<T>) {
            json.beginObject();
            T::forEachField(fieldWriter(json, value));
            json.endObject();
        } else if constexpr (std::is_enum_v<T>) {
            json.value(enumName(enums...)(value));
        } else {
            json.value(value);
        }
    };
}

/** A visitor that reads each listed field of @p record through
 *  @p reader; a nested record's errors name it ("machine.l1d"). */
template <typename Record>
auto
fieldReader(FieldReader &reader, Record &record, std::string &error)
{
    return [&reader, &record, &error](const char *key, auto member,
                                      auto... enums) {
        auto &value = record.*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_class_v<T>) {
            const obs::JsonValue *object = reader.claim(key);
            if (object == nullptr)
                return;
            FieldReader nested(*object, "machine", error,
                               FieldReader::kNoIndex, key);
            T::forEachField(fieldReader(nested, value, error));
            if (!nested.finish())
                reader.fail(error);
        } else if constexpr (std::is_enum_v<T>) {
            reader.enumField(key, value, enumParser(enums...));
        } else if constexpr (std::is_same_v<T, bool>) {
            reader.boolField(key, value);
        } else if constexpr (std::is_floating_point_v<T>) {
            reader.doubleField(key, value);
        } else {
            reader.uintField(key, value);
        }
    };
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
    MachineConfig::forEachField(fieldWriter(json, machine));
    // Topology fields only for multi-core machines: single-core
    // payloads (and their golden fixtures) stay byte-identical, and
    // pre-topology peers that reject unknown fields keep working.
    if (machine.cores != 1)
        MachineConfig::forEachTopologyField(fieldWriter(json, machine));
    json.endObject();
}

bool
machineConfigFromJson(const obs::JsonValue &value, MachineConfig &out,
                      std::string &error)
{
    FieldReader reader(value, "machine", error);
    MachineConfig::forEachField(fieldReader(reader, out, error));
    MachineConfig::forEachTopologyField(fieldReader(reader, out, error));
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
