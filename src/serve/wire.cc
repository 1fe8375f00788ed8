#include "serve/wire.hh"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

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
static_assert(namesEvery(kFrameResultNames, FrameResult::Error));

constexpr EnumName<RequestType> kRequestTypeNames[] = {
    {RequestType::Sweep, "sweep"},
    {RequestType::Ping, "ping"},
    {RequestType::Stats, "stats"},
    {RequestType::Shutdown, "shutdown"},
};
static_assert(namesEvery(kRequestTypeNames, RequestType::Shutdown));

constexpr EnumName<ResponseType> kResponseTypeNames[] = {
    {ResponseType::Results, "results"},
    {ResponseType::Pong, "pong"},
    {ResponseType::Stats, "stats"},
    {ResponseType::RetryAfter, "retry-after"},
    {ResponseType::Error, "error"},
    {ResponseType::Bye, "bye"},
};
static_assert(namesEvery(kResponseTypeNames, ResponseType::Bye));

/** The frame header's verdict: Ok with the payload's @p length, or
 *  BadMagic or TooLarge. */
FrameResult
frameLength(const char *header, std::size_t maxBytes, std::size_t &length)
{
    if (std::memcmp(header, kFrameMagic, sizeof kFrameMagic) != 0)
        return FrameResult::BadMagic;
    length = (std::size_t(std::uint8_t(header[4])) << 24)
             | (std::size_t(std::uint8_t(header[5])) << 16)
             | (std::size_t(std::uint8_t(header[6])) << 8)
             | std::size_t(std::uint8_t(header[7]));
    return length > maxBytes ? FrameResult::TooLarge : FrameResult::Ok;
}

constexpr std::size_t kHeaderBytes = 8;
/** A frame reader's first buffer. */
constexpr std::size_t kMinFrameBuffer = 4096;

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
        if constexpr (std::is_class_v<T>) {
            json.key(key).beginObject();
            T::forEachField(fieldWriter(json, value));
            json.endObject();
        } else if constexpr (std::is_enum_v<T>) {
            json.field(key, enumName(enums...)(value));
        } else {
            json.field(key, value);
        }
    };
}

/** Every field a record's wire object may hold, in the order the
 *  writer emits them: a machine's topology fields follow the rest. */
template <typename Record, typename Visit>
void
forEachWireField(Visit &&visit)
{
    Record::forEachField(visit);
    if constexpr (std::is_same_v<Record, MachineConfig>)
        Record::forEachTopologyField(visit);
}

/** Most fields a record's wire object lists (MachineConfig has 19). */
constexpr std::size_t kMaxWireFields = 24;

/** The keys of forEachWireField<Record>(), in its order. */
template <typename Record>
std::span<const std::string_view>
wireKeys()
{
    static const std::vector<std::string_view> keys = [] {
        std::vector<std::string_view> out;
        forEachWireField<Record>(
            [&out](const char *key, auto...) { out.push_back(key); });
        wbsim_assert(out.size() <= kMaxWireFields,
                     "a wire record lists more fields than its table");
        return out;
    }();
    return keys;
}

template <typename Record>
bool readRecord(FieldReader &reader, Record &record, std::string &error);

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
            FieldReader nested(reader.json(), wireKeys<T>(), "machine",
                               error, FieldReader::kNoIndex, key);
            if (!readRecord(nested, value, error))
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

/** Read field @p I of forEachWireField<Record>() through @p reader;
 *  the index folds at compile time, so this holds that field's code
 *  alone (and nothing when @p I is past the list). */
template <typename Record, std::size_t I>
void
readField(FieldReader &reader, Record &record, std::string &error)
{
    std::size_t index = 0;
    forEachWireField<Record>(
        [&](const char *key, auto member, auto... enums) {
            if (index++ == I)
                fieldReader(reader, record, error)(key, member, enums...);
        });
}

template <typename Record, std::size_t... I>
constexpr auto
fieldReaders(std::index_sequence<I...>)
{
    return std::array{&readField<Record, I>...};
}

/** Read @p record's fields through @p reader member by member, each
 *  through its entry in a table, and reject unknown keys. */
template <typename Record>
bool
readRecord(FieldReader &reader, Record &record, std::string &error)
{
    static constexpr auto kReaders =
        fieldReaders<Record>(std::make_index_sequence<kMaxWireFields>{});
    reader.members(
        [&](std::size_t field) { kReaders[field](reader, record, error); });
    return reader.finish();
}

/** The array member @p key of @p reader's object, item by item:
 *  @p item(index) reads one, and on false the rest are stepped over
 *  (the first failing item is the one reported). */
template <typename Item>
void
readArray(FieldReader &reader, const char *key, Item &&item)
{
    obs::JsonReader &json = reader.json();
    if (json.peek() != obs::JsonValue::Kind::Array) {
        json.skip();
        reader.fail(std::string(key) + " must be an array");
        return;
    }
    json.beginArray();
    std::size_t index = 0;
    while (json.nextItem()) {
        if (!item(index++)) {
            while (json.nextItem())
                json.skip();
            return;
        }
    }
}

constexpr std::string_view kCellKeys[] = {"benchmark", "seed",
                                          "instructions", "warmup",
                                          "machine"};

bool
readCell(obs::JsonReader &json, std::size_t index, CellSpec &out,
         std::string &error)
{
    FieldReader reader(json, kCellKeys, "cells", error, index);
    reader.members([&](std::size_t field) {
        switch (field) {
          case 0:
            reader.stringField("benchmark", out.benchmark);
            break;
          case 1:
            reader.uintField("seed", out.seed);
            break;
          case 2:
            reader.uintField("instructions", out.instructions);
            break;
          case 3:
            reader.uintField("warmup", out.warmup);
            break;
          case 4:
            if (!machineConfigFromJson(json, out.machine, error))
                reader.fail(error);
            break;
        }
    });
    if (!reader.finish())
        return false;
    if (out.benchmark.empty())
        return reader.fail("benchmark is required");
    return true;
}

constexpr std::string_view kRequestKeys[] = {"schema", "type", "priority",
                                             "cells"};

bool
readRequest(obs::JsonReader &json, Request &out, std::string &error)
{
    FieldReader reader(json, kRequestKeys, "request", error);
    std::string schema, type;
    auto checkSchema = [&] {
        if (schema != kRequestSchema)
            reader.fail("unsupported schema \"" + schema
                        + "\" (this server speaks " + kRequestSchema
                        + ")");
    };
    auto checkType = [&] {
        if (!tryParseRequestType(type, out.type))
            reader.fail("unknown request type \"" + type + "\"");
    };
    reader.members([&](std::size_t field) {
        switch (field) {
          case 0:
            if (reader.stringField("schema", schema))
                checkSchema();
            break;
          case 1:
            if (reader.stringField("type", type))
                checkType();
            break;
          case 2:
            reader.uintField("priority", out.priority);
            break;
          case 3:
            readArray(reader, "cells", [&](std::size_t index) {
                return readCell(json, index, out.cells.emplace_back(),
                                error)
                       || reader.fail(error);
            });
            break;
        }
    });
    // An absent schema or type is judged as "".
    if (!reader.has(0))
        reader.attempt(0, checkSchema);
    if (!reader.has(1))
        reader.attempt(1, checkType);
    if (!reader.finish())
        return false;
    if (out.type == RequestType::Sweep && out.cells.empty())
        return reader.fail("sweep request with no cells");
    return true;
}

constexpr std::string_view kResultCellKeys[] = {"benchmark", "cache_hit",
                                                "result_json"};

bool
readResultCell(obs::JsonReader &json, std::size_t index, CellResult &out,
               std::string &error)
{
    FieldReader reader(json, kResultCellKeys, "cells", error, index);
    reader.members([&](std::size_t field) {
        switch (field) {
          case 0:
            reader.stringField("benchmark", out.benchmark);
            break;
          case 1:
            reader.boolField("cache_hit", out.cacheHit);
            break;
          case 2:
            reader.stringField("result_json", out.resultJson);
            break;
        }
    });
    return reader.finish();
}

constexpr std::string_view kResponseKeys[] = {
    "schema", "type", "retry_after_ms", "error", "stats_json", "cells"};

bool
readResponse(obs::JsonReader &json, Response &out, std::string &error)
{
    FieldReader reader(json, kResponseKeys, "response", error);
    std::string schema, type;
    auto checkSchema = [&] {
        if (schema != kResponseSchema)
            reader.fail("unsupported schema \"" + schema
                        + "\" (this client speaks " + kResponseSchema
                        + ")");
    };
    auto checkType = [&] {
        if (!tryParseResponseType(type, out.type))
            reader.fail("unknown response type \"" + type + "\"");
    };
    reader.members([&](std::size_t field) {
        switch (field) {
          case 0:
            if (reader.stringField("schema", schema))
                checkSchema();
            break;
          case 1:
            if (reader.stringField("type", type))
                checkType();
            break;
          case 2:
            reader.uintField("retry_after_ms", out.retryAfterMs);
            break;
          case 3:
            reader.stringField("error", out.error);
            break;
          case 4:
            reader.stringField("stats_json", out.statsJson);
            break;
          case 5:
            readArray(reader, "cells", [&](std::size_t index) {
                return readResultCell(json, index,
                                      out.cells.emplace_back(), error)
                       || reader.fail(error);
            });
            break;
        }
    });
    if (!reader.has(0)) // see readRequest
        reader.attempt(0, checkSchema);
    if (!reader.has(1))
        reader.attempt(1, checkType);
    return reader.finish();
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
FrameReader::fill(int fd, std::size_t bytes)
{
    while (end_ - begin_ < bytes) {
        if (capacity_ - begin_ < bytes) {
            // Move the unread bytes to the front of a buffer that
            // holds the frame, growing it at most to the frame cap.
            const std::size_t unread = end_ - begin_;
            if (capacity_ < bytes) {
                const std::size_t size = std::max(
                    {bytes, kMinFrameBuffer,
                     std::min(2 * capacity_, kHeaderBytes + maxBytes_)});
                auto grown = std::make_unique_for_overwrite<char[]>(size);
                if (unread > 0)
                    std::memcpy(grown.get(), buffer_.get() + begin_, unread);
                buffer_ = std::move(grown);
                capacity_ = size;
            } else if (unread > 0) {
                std::memmove(buffer_.get(), buffer_.get() + begin_, unread);
            }
            begin_ = 0;
            end_ = unread;
        }
        ssize_t n = ::recv(fd, buffer_.get() + end_, capacity_ - end_, 0);
        if (n == 0)
            return end_ == begin_ ? FrameResult::Eof : FrameResult::Error;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return FrameResult::Error;
        }
        end_ += std::size_t(n);
    }
    return FrameResult::Ok;
}

FrameResult
FrameReader::next(int fd)
{
    payload_ = {};
    if (begin_ == end_)
        begin_ = end_ = 0;
    if (FrameResult got = fill(fd, kHeaderBytes); got != FrameResult::Ok)
        return got;
    std::size_t length = 0;
    if (FrameResult verdict =
            frameLength(buffer_.get() + begin_, maxBytes_, length);
        verdict != FrameResult::Ok)
        return verdict;
    if (fill(fd, kHeaderBytes + length) != FrameResult::Ok)
        return FrameResult::Error;
    payload_ = {buffer_.get() + begin_ + kHeaderBytes, length};
    begin_ += kHeaderBytes + length;
    return FrameResult::Ok;
}

bool
writeFrame(int fd, std::string_view payload)
{
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        return false;
    const auto length = std::uint32_t(payload.size());
    char header[kHeaderBytes] = {
        kFrameMagic[0],     kFrameMagic[1],     kFrameMagic[2],
        kFrameMagic[3],     char(length >> 24), char(length >> 16),
        char(length >> 8),  char(length)};
    iovec parts[2] = {{header, sizeof header},
                      {const_cast<char *>(payload.data()), payload.size()}};
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = payload.empty() ? 1 : 2;
    while (message.msg_iovlen > 0) {
        // MSG_NOSIGNAL: a peer that hangs up must produce an error
        // return, not SIGPIPE.
        ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        // Step past what was sent: all of it, or a short write.
        auto sent = std::size_t(n);
        while (message.msg_iovlen > 0 && sent >= message.msg_iov->iov_len) {
            sent -= message.msg_iov->iov_len;
            ++message.msg_iov;
            --message.msg_iovlen;
        }
        if (message.msg_iovlen > 0) {
            message.msg_iov->iov_base =
                static_cast<char *>(message.msg_iov->iov_base) + sent;
            message.msg_iov->iov_len -= sent;
        }
    }
    return true;
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
machineConfigFromJson(obs::JsonReader &json, MachineConfig &out,
                      std::string &error)
{
    FieldReader reader(json, wireKeys<MachineConfig>(), "machine", error);
    return readRecord(reader, out, error);
}

namespace
{

/** A request of @p type; @p priority and @p cells go on the wire
 *  for a sweep only. */
std::string
encodeRequestOf(RequestType type, std::uint32_t priority,
                const std::vector<CellSpec> &cells)
{
    // Sized once: a cell with its machine is about 850 bytes.
    std::size_t bytes = 128;
    for (const CellSpec &cell : cells)
        bytes += 1024 + cell.benchmark.size();
    obs::JsonWriter json(0, bytes);
    json.beginObject();
    json.field("schema", kRequestSchema);
    json.field("type", requestTypeName(type));
    if (type == RequestType::Sweep) {
        json.field("priority", std::uint64_t(priority));
        json.key("cells");
        json.beginArray();
        for (const CellSpec &cell : cells) {
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
    return json.take();
}

} // namespace

std::string
encodeRequest(const Request &request)
{
    return encodeRequestOf(request.type, request.priority, request.cells);
}

std::string
encodeSweepRequest(std::uint32_t priority,
                   const std::vector<CellSpec> &cells)
{
    return encodeRequestOf(RequestType::Sweep, priority, cells);
}

bool
decodeRequest(std::string_view payload, Request &out,
              std::string &error)
{
    // fail() keeps the innermost (first) message, so start clean —
    // a stale message from the caller's previous decode must not
    // mask this one's.
    error.clear();
    obs::JsonReader json(payload);
    return json.read(error, [&] { return readRequest(json, out, error); });
}

std::string
encodeResultToken(std::string_view resultJson)
{
    // A root string value: value()'s quoting and escaper, alone.
    obs::JsonWriter json(0, resultJson.size() * 5 / 4 + 8);
    json.value(resultJson);
    return json.take();
}

std::string
encodeResults(const std::vector<ResultCellView> &cells)
{
    std::size_t bytes = 128;
    for (const ResultCellView &cell : cells)
        bytes += 64 + cell.benchmark.size() + cell.token.size();
    obs::JsonWriter json(0, bytes);
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
    return json.take();
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
    obs::JsonWriter json(0, 256 + response.error.size()
                                + response.statsJson.size() * 5 / 4);
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
    return json.take();
}

bool
decodeResponse(std::string_view payload, Response &out,
               std::string &error)
{
    error.clear(); // see decodeRequest
    obs::JsonReader json(payload);
    return json.read(error,
                     [&] { return readResponse(json, out, error); });
}

} // namespace wbsim::serve
