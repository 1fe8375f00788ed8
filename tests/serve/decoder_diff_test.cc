/**
 * @file
 * Differential test of the wire and result decoders. decodeRequest,
 * decodeResponse and simResultsFromJson read a text in one pass with
 * obs::JsonReader; the reference below is the tree decoder they
 * replaced, kept verbatim with the claim-mode field reader it used:
 * JsonValue::tryParse, then claim-mode FieldReaders in schema order.
 * Both run over the golden frames and documents, the seeded mutation
 * fuzzers' cases, and hand-made frames with repeated, escaped,
 * reordered and unknown keys and deep nesting. They must agree on
 * accept or reject, on every decoded value and on every error
 * message: the one-pass decoder reports the failure a schema-order
 * walk meets first, and malformed text anywhere over any failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/export.hh"
#include "obs/json.hh"
#include "serve/wire.hh"
#include "wire_fuzz.hh"

#ifndef WBSIM_GOLDEN_DIR
#error "WBSIM_GOLDEN_DIR must point at tests/obs/golden"
#endif

namespace wbsim::serve
{
namespace
{

/** The claim-mode reader and the tree decoders built on it, as they
 *  were before every decoder read in one pass. */
namespace reference
{

using obs::JsonValue;

/**
 * Strict member extraction from one JSON object: a member that is
 * present must have the right JSON type and range. By default an
 * absent member keeps its default and finish() rejects keys the
 * schema does not know. After requireAll() an absent member is an
 * error too (the sim-results reader, which ignores unknown members).
 *
 * The schema claims its members by key, in schema order; errors read
 * "where[index].member: what", naming the first failure in schema
 * order.
 */
class FieldReader
{
  public:
    /** Sentinel for @p index: the location is @p where alone. */
    static constexpr std::size_t kNoIndex = ~std::size_t{0};

    /** Claim mode over the tree @p value. @p index and @p member,
     *  when given, extend the location: "cells[3]", "machine.l1d". */
    FieldReader(const JsonValue &value, std::string_view where,
                std::string &error, std::size_t index = kNoIndex,
                const char *member = nullptr)
        : value_(&value), where_(where), member_(member), index_(index),
          error_(error)
    {
        requireObject(value.isObject());
    }

    bool ok() const { return ok_; }

    /** An absent member is an error from now on (claim mode). */
    void requireAll() { required_ = true; }

    template <typename T>
    bool
    uintField(const char *key, T &out,
              std::uint64_t max = std::numeric_limits<T>::max())
    {
        const JsonValue *v = claim(key);
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
        const JsonValue *v = claim(key);
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
        const JsonValue *v = claim(key);
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
        const JsonValue *v = claim(key);
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
        const JsonValue *v = claim(key);
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
    const JsonValue *
    claim(const char *key)
    {
        if (!ok_)
            return nullptr;
        wbsim_assert(known_count_ < known_.size(),
                     "FieldReader schema has more keys than its table");
        known_[known_count_++] = key;
        const JsonValue *member = value_->find(key);
        found_ += member != nullptr;
        if (member == nullptr && required_)
            fail(std::string(key) + " is missing");
        return member;
    }

    /** Reject any member the schema did not claim, naming the
     *  alphabetically first. */
    bool
    finish()
    {
        if (!ok_)
            return false;
        // Every member claimed when the counts agree (keys are
        // distinct); repeats of claimed keys are known.
        if (found_ != value_->object().size())
            for (const auto &member : value_->object())
                if (!isKnown(member.key))
                    noteUnknown(member.key);
        if (has_unknown_)
            return fail("unknown key \"" + unknown_ + "\"");
        return true;
    }

    /** Record @p what at this location unless an error is already
     *  set (the innermost failure wins); always false. */
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = where_;
            if (index_ != kNoIndex)
                error_.append("[").append(std::to_string(index_))
                    .append("]");
            if (member_ != nullptr)
                error_.append(".").append(member_);
            error_ += ": " + what;
        }
        ok_ = false;
        return false;
    }

  private:
    void
    requireObject(bool object)
    {
        ok_ = object;
        if (!ok_)
            fail("must be a JSON object");
    }

    bool
    isKnown(std::string_view key) const
    {
        for (std::size_t i = 0; i < known_count_; ++i)
            if (std::string_view(known_[i]) == key)
                return true;
        return false;
    }

    void
    noteUnknown(std::string_view key)
    {
        if (!has_unknown_ || key < unknown_) {
            unknown_ = key;
            has_unknown_ = true;
        }
    }

    /** The object. */
    const JsonValue *value_ = nullptr;

    std::string_view where_;
    const char *member_;
    std::size_t index_;
    std::string &error_;
    /** Keys claimed so far (the first known_count_); the widest
     *  schema (write_buffer) has 17. */
    std::array<const char *, 24> known_;
    std::size_t known_count_ = 0;
    /** Claimed keys that were present. */
    std::size_t found_ = 0;
    /** The alphabetically first unknown key seen. */
    std::string unknown_;
    bool has_unknown_ = false;
    bool ok_ = true;
    bool required_ = false;
};

constexpr auto enumParser = [](auto, auto tryParse) { return tryParse; };

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
            if (const obs::JsonValue *object = reader.claim(key)) {
                FieldReader nested(*object, "machine", error,
                                   FieldReader::kNoIndex, key);
                if (!readRecord(nested, value, error))
                    reader.fail(error);
            }
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

/** Read @p record's fields through @p reader field by field and
 *  reject unknown keys; a machine's topology fields follow the
 *  rest. */
template <typename Record>
bool
readRecord(FieldReader &reader, Record &record, std::string &error)
{
    auto visit = fieldReader(reader, record, error);
    Record::forEachField(visit);
    if constexpr (std::is_same_v<Record, MachineConfig>)
        Record::forEachTopologyField(visit);
    return reader.finish();
}

bool
machineConfigFromJson(const obs::JsonValue &value, MachineConfig &out,
                      std::string &error)
{
    FieldReader reader(value, "machine", error);
    return readRecord(reader, out, error);
}

constexpr const char *kSimResultsSchema = "wbsim-sim-results-v1";

bool
simResultsFromJson(const JsonValue &doc, SimResults &out,
                   std::string &error)
{
    error.clear(); // fail() keeps the first message
    FieldReader root(doc, "result", error);
    root.requireAll();
    std::string schema;
    if (root.stringField("schema", schema) && schema != kSimResultsSchema)
        root.fail("unsupported schema \"" + schema + "\"");
    const JsonValue *stalls = root.claim("stalls");
    // Every stored member is required, each read through a reader on
    // its group's object; unknown and derived members are ignored.
    SimResults r;
    SimResults::forEachField([&](ResultGroup in, const char *key,
                                 const char *, Combine, auto access) {
        if constexpr (std::is_member_object_pointer_v<decltype(access)>) {
            if (!error.empty())
                return;
            const ResultGroupKey &group = kResultGroups[std::size_t(in)];
            const JsonValue *object = &doc;
            if (group.key) {
                FieldReader parent(group.inStalls ? *stalls : doc,
                                   group.inStalls ? "stalls" : "result",
                                   error);
                parent.requireAll();
                if ((object = parent.claim(group.key)) == nullptr)
                    return;
            }
            // Locations "result", "l1", "stalls.buffer_full".
            FieldReader reader(*object,
                               group.inStalls ? "stalls"
                               : group.key    ? group.key
                                              : "result",
                               error, FieldReader::kNoIndex,
                               group.inStalls ? group.key : nullptr);
            reader.requireAll();
            auto &value = resultField(r, access);
            using T = std::decay_t<decltype(value)>;
            if constexpr (std::is_same_v<T, std::string>)
                reader.stringField(key, value);
            else if constexpr (std::is_floating_point_v<T>)
                reader.doubleField(key, value);
            else
                reader.uintField(key, value);
        }
    });
    if (!error.empty())
        return false;
    out = std::move(r);
    return true;
}

} // namespace reference

using reference::FieldReader;
using reference::machineConfigFromJson;

/** @name The tree decoders, as they were. */
/// @{
bool
referenceCell(const obs::JsonValue &value, std::size_t index,
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

bool
referenceRequest(const std::string &payload, Request &out,
                 std::string &error)
{
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
            if (!referenceCell(cell, index, spec, error))
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

bool
referenceResponse(const std::string &payload, Response &out,
                  std::string &error)
{
    error.clear();
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
/// @}

/** Every machine field, topology included (the wire form drops the
 *  topology of a single-core machine). */
std::string
machineText(const MachineConfig &machine)
{
    std::string text;
    obs::JsonWriter json(text, 0);
    machineConfigToJson(json, machine);
    text += " cores=" + std::to_string(machine.cores) + " bus="
            + busDisciplineName(machine.busDiscipline);
    return text;
}

/** Both request decoders on @p text; returns the verdict. */
bool
expectSameRequest(const std::string &text, const std::string &context)
{
    Request mine, theirs;
    std::string myError = "stale", theirError = "stale";
    bool ok = decodeRequest(text, mine, myError);
    EXPECT_EQ(referenceRequest(text, theirs, theirError), ok)
        << context << "\n" << myError << "\n" << theirError;
    EXPECT_EQ(ok, myError.empty()) << context << ": " << myError;
    if (!ok) {
        EXPECT_EQ(theirError, myError) << context;
        return false;
    }
    EXPECT_EQ(theirs.type, mine.type) << context;
    EXPECT_EQ(theirs.priority, mine.priority) << context;
    EXPECT_EQ(theirs.cells.size(), mine.cells.size()) << context;
    for (std::size_t i = 0;
         i < std::min(theirs.cells.size(), mine.cells.size()); ++i) {
        const CellSpec &a = theirs.cells[i];
        const CellSpec &b = mine.cells[i];
        EXPECT_EQ(a.benchmark, b.benchmark) << context;
        EXPECT_EQ(a.seed, b.seed) << context;
        EXPECT_EQ(a.instructions, b.instructions) << context;
        EXPECT_EQ(a.warmup, b.warmup) << context;
        EXPECT_EQ(machineText(a.machine), machineText(b.machine))
            << context;
    }
    return true;
}

/** Both response decoders on @p text; returns the verdict. */
bool
expectSameResponse(const std::string &text, const std::string &context)
{
    Response mine, theirs;
    std::string myError = "stale", theirError = "stale";
    bool ok = decodeResponse(text, mine, myError);
    EXPECT_EQ(referenceResponse(text, theirs, theirError), ok)
        << context << "\n" << myError << "\n" << theirError;
    EXPECT_EQ(ok, myError.empty()) << context << ": " << myError;
    if (!ok) {
        EXPECT_EQ(theirError, myError) << context;
        return false;
    }
    EXPECT_EQ(theirs.type, mine.type) << context;
    EXPECT_EQ(theirs.retryAfterMs, mine.retryAfterMs) << context;
    EXPECT_EQ(theirs.error, mine.error) << context;
    EXPECT_EQ(theirs.statsJson, mine.statsJson) << context;
    EXPECT_EQ(theirs.cells.size(), mine.cells.size()) << context;
    for (std::size_t i = 0;
         i < std::min(theirs.cells.size(), mine.cells.size()); ++i) {
        EXPECT_EQ(theirs.cells[i].benchmark, mine.cells[i].benchmark)
            << context;
        EXPECT_EQ(theirs.cells[i].cacheHit, mine.cells[i].cacheHit)
            << context;
        EXPECT_EQ(theirs.cells[i].resultJson, mine.cells[i].resultJson)
            << context;
    }
    return true;
}

TEST(DecoderDiff, GoldenFrames)
{
    for (const char *name : kFuzzFrames) {
        std::string text = readGolden(name);
        bool request = expectSameRequest(text, name);
        bool response = expectSameResponse(text, name);
        EXPECT_NE(request, response) << name;
    }
}

TEST(DecoderDiff, MutatedGoldenFrames)
{
    // The wire fuzzer's own cases, replayed through both decoders.
    std::vector<std::string> seeds;
    for (const char *name : kFuzzFrames)
        seeds.push_back(readGolden(name));
    std::mt19937_64 rng(kFuzzSeed);
    int accepted = 0;
    for (int i = 0; i < 15000; ++i) {
        std::string text =
            mutate(seeds[std::size_t(i) % seeds.size()], rng);
        std::string context = "case " + std::to_string(i) + ": " + text;
        accepted += expectSameRequest(text, context);
        accepted += expectSameResponse(text, context);
        if (HasFailure())
            break;
    }
    EXPECT_GT(accepted, 0);
}

constexpr const char *kHead =
    R"({"schema": "wbsim-serve-req-v1", "type": "sweep", )";

/** A request whose cells array is @p cells. */
std::string
sweepOf(const std::string &cells)
{
    return std::string(kHead) + R"("cells": [)" + cells + "]}";
}

TEST(DecoderDiff, HandMadeRequests)
{
    const std::string frames[] = {
        // The existing tests' pinned cases.
        std::string(kHead)
            + R"("zeta": 1, "mu": 2, "beta": 3, "gamma": 4})",
        sweepOf(R"({"benchmark": "li"}, {"benchmark": "li", "zz": 1,)"
                R"( "aa": 2})"),
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep",)"
        R"( "priority": 4, "priority": 9, "type": "ping",)"
        R"( "cells": [{"benchmark": "li", "seed": 5, "seed": 6}]})",
        sweepOf(R"({"benchmark": "li", "machine":)"
                R"( {"bubble_probability": 1e999}})"),
        sweepOf(R"({"benchmark": "li", "instructions": 100, "machine":)"
                R"( {"cores": 2, "bus_discipline": "lottery"}})"),
        sweepOf(R"({"benchmark": "li", "machine": {"write_buffer":)"
                R"( {"kind": "write-heap"}}})"),
        R"({"schema": "wbsim-serve-req-v2", "type": "ping"})",
        std::string(kHead) + R"("cells": []})",
        "not json at all",
        // Repeated keys: the first wins, even over a bad repeat.
        sweepOf(R"({"benchmark": "li", "benchmark": 7, "machine":)"
                R"( {"l1d": {"size_bytes": 4096}, "l1d": 3}}, )"
                R"({"benchmark": "gcc", "warmup": 9, "warmup": "x"})"),
        // Escaped keys and values.
        R"({"sch\u0065ma": "wbsim-serve-req-v1", "type": "sweep",)"
        R"( "cells": [{"b\u0065nchmark": "li", "se\u0065d": 3,)"
        R"( "machine": {"write_buffer": {"d\u0065pth": 6}}}]})",
        sweepOf(R"({"benchmark": "a\"b\\c\/d\n\t\r", "se\u0000ed": 1})"),
        // Unknown keys at every level, and under a field error.
        sweepOf(R"({"benchmark": "li", "machine": {"l1d": {"zz": 1,)"
                R"( "size_bytes": 8192, "aa": 0}}})"),
        sweepOf(R"({"benchmark": "li", "zz": 0, "machine":)"
                R"( {"l2_latency": "slow"}})"),
        std::string(kHead)
            + R"("zz": 0, "cells": [{"benchmark": "li"}], "aa": [1, {}]})",
        // Types, ranges, absent members and checks after the members.
        sweepOf(R"({"benchmark": "li", "machine": {"cores": 4294967296}})"),
        sweepOf(R"({"benchmark": "li", "machine": {"l1d": []}})"),
        sweepOf(R"({"benchmark": "li", "machine": 5})"),
        sweepOf(R"({"seed": 1})"),
        sweepOf(R"(7)"),
        std::string(kHead) + R"("cells": {}})",
        R"({"type": "ping"})",
        R"({"schema": "wbsim-serve-req-v1"})",
        R"({"schema": "wbsim-serve-req-v1", "type": "ping", "priority": -1})",
        R"({"schema": 1, "type": "ping"})",
        R"([])",
        R"({})",
        "",
        // Malformed text after a rejected value is what is reported.
        std::string(kHead) + R"("priority": "high", "cells": [1,]})",
        sweepOf(R"({"benchmark": "", "seed": 1}, {"x": tru})"),
        std::string(kHead) + R"("zz": 1, "cells": [{"benchmark": "li"}]} x)",
        sweepOf(R"({"benchmark": "li"})") + " ",
        // Deep nesting under a cell (three levels down): a value 64
        // deep parses, one 65 deep does not.
        sweepOf(R"({"benchmark": "li", "zz": )" + std::string(61, '[')
                + std::string(61, ']') + "}"),
        sweepOf(R"({"benchmark": "li", "zz": )" + std::string(62, '[')
                + std::string(62, ']') + "}"),
        sweepOf(R"({"benchmark": "li", "seed": )" + std::string(80, '[')),
        sweepOf(R"({"benchmark": "li", "machine": {"l1d": )"
                + std::string(59, '{') + "}}}"),
        // Members out of the writer's order.
        R"({"cells": [{"machine": {"write_buffer": {"depth": 3},)"
        R"( "l1d": {"associativity": 2}}, "warmup": 5,)"
        R"( "benchmark": "li"}], "type": "sweep",)"
        R"( "schema": "wbsim-serve-req-v1", "priority": 2})",
        R"({"type": "bogus", "schema": "wbsim-serve-req-v2"})",
        R"({"cells": [{"benchmark": 1}], "schema": "nope"})",
        R"({"priority": "x", "type": "ping", "schema": "wbsim-serve-req-v1"})",
        sweepOf(R"({"machine": {"cores": "x", "l1d": 1}, "benchmark": ""})"),
        R"({"zz": 1, "cells": [{"benchmark": "li"}], "type": "ping",)"
        R"( "priority": "x"})",
        R"({"schema": "wbsim-serve-req-v1", "cells": 3,)"
        R"( "schema": 4, "type": "nope"})",
    };
    for (const std::string &text : frames)
        expectSameRequest(text, text);
}

TEST(DecoderDiff, HandMadeResponses)
{
    Response response;
    response.type = ResponseType::Results;
    for (const char *name : {"li", "gcc"}) {
        CellResult cell;
        cell.benchmark = name;
        cell.resultJson = "{\"schema\": \"wbsim-sim-results-v1\",\n"
                          " \"path\": \"a\\\\b\", \"tab\": \"\t\"}\n";
        response.cells.push_back(cell);
    }
    const std::string results = encodeResponse(response);
    const std::string frames[] = {
        results,
        R"({"schema": "wbsim-serve-resp-v9", "type": "pong"})",
        R"({"schema": "wbsim-serve-resp-v1", "type": "error",)"
        R"( "error": "cells[0]: unknown benchmark \"doom\""})",
        R"({"schema": "wbsim-serve-resp-v1", "type": "stats",)"
        R"( "stats_json": "{}", "stats_json": 5})",
        R"({"schema": "wbsim-serve-resp-v1", "type": "results",)"
        R"( "cells": [{"benchmark": "li", "cache_hit": 1}]})",
        R"({"schema": "wbsim-serve-resp-v1", "type": "results",)"
        R"( "cells": [{"benchmark": "li", "zz": 1, "result_json": "x"}]})",
        R"({"schema": "wbsim-serve-resp-v1", "type": "retry-after",)"
        R"( "retry_after_ms": 4294967296})",
        R"({"schema": "wbsim-serve-resp-v1", "type": "pong"} {})",
        R"({"schema": "wbsim-serve-resp-v1"})",
        // Members out of the writer's order.
        R"({"cells": [{"result_json": "x", "benchmark": "li"}],)"
        R"( "type": "results", "schema": "wbsim-serve-resp-v1"})",
        R"({"cells": [{"cache_hit": 2, "benchmark": 1}], "type": "x"})",
    };
    for (const std::string &text : frames)
        expectSameResponse(text, text);
}

/** The committed sim-results golden (tests/obs/golden). */
std::string
resultsGolden()
{
    std::ifstream in(std::string(WBSIM_GOLDEN_DIR) + "/sim_results.json",
                     std::ios::binary);
    EXPECT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Both sim-results decoders on @p text; returns the verdict. */
bool
expectSameResults(const std::string &text, const std::string &context)
{
    SimResults mine, theirs;
    std::string myError = "stale", theirError = "stale";
    bool ok = obs::simResultsFromJson(text, mine, myError);
    obs::JsonValue doc;
    bool theirOk = obs::JsonValue::tryParse(text, doc, theirError)
                   && reference::simResultsFromJson(doc, theirs, theirError);
    EXPECT_EQ(theirOk, ok) << context << "\n"
                           << myError << "\n"
                           << theirError;
    EXPECT_EQ(ok, myError.empty()) << context << ": " << myError;
    if (!ok) {
        EXPECT_EQ(theirError, myError) << context;
        return false;
    }
    EXPECT_TRUE(theirs == mine) << context;
    return true;
}

/** @p doc rendered with the member at dotted @p path dropped
 *  (@p with null) or replaced by the JSON text @p with. */
std::string
edited(const obs::JsonValue &doc, const std::string &path,
       const char *with, const std::string &at = "")
{
    std::string text;
    obs::JsonWriter json(text, 1);
    auto render = [&](auto &self, const obs::JsonValue &value,
                      const std::string &where) -> void {
        switch (value.kind()) {
        case obs::JsonValue::Kind::Object:
            json.beginObject();
            for (const auto &member : value.object()) {
                std::string inner =
                    where.empty() ? member.key : where + "." + member.key;
                if (inner == path && with == nullptr)
                    continue;
                json.key(member.key);
                if (inner == path)
                    json.rawValue(with);
                else
                    self(self, member.value, inner);
            }
            json.endObject();
            break;
        case obs::JsonValue::Kind::Array:
            json.beginArray();
            for (const obs::JsonValue &item : value.array())
                self(self, item, "");
            json.endArray();
            break;
        case obs::JsonValue::Kind::String:
            json.value(value.string());
            break;
        case obs::JsonValue::Kind::Number:
            if (value.isUint())
                json.value(value.uint());
            else
                json.value(value.number());
            break;
        case obs::JsonValue::Kind::Bool:
            json.value(value.boolean());
            break;
        case obs::JsonValue::Kind::Null:
            json.rawValue("null");
            break;
        }
    };
    render(render, doc, at);
    return text;
}

TEST(DecoderDiff, SimResultsDocuments)
{
    const std::string golden = resultsGolden();
    ASSERT_TRUE(expectSameResults(golden, "golden"));
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::tryParse(golden, doc, error)) << error;

    // Every member dropped, retyped and doubled up, at every level.
    std::vector<std::string> paths;
    auto collect = [&](auto &self, const obs::JsonValue &value,
                       const std::string &where) -> void {
        for (const auto &member : value.object()) {
            std::string inner =
                where.empty() ? member.key : where + "." + member.key;
            paths.push_back(inner);
            if (member.value.isObject())
                self(self, member.value, inner);
        }
    };
    collect(collect, doc, "");
    ASSERT_EQ(paths.size(), 71u);
    const char *replacements[] = {nullptr, "\"7\"", "7", "-7", "1.5",
                                  "1e999", "null", "[]", "{}",
                                  "{\"cycles\": 1}"};
    for (const std::string &path : paths)
        for (const char *with : replacements)
            expectSameResults(edited(doc, path, with),
                              path + " -> " + (with ? with : "dropped"));

    // Hand-made: failures in several groups at once (the field list's
    // order decides, not the document's), repeats, reordering,
    // unknown members and malformed text after a failure.
    const std::string frames[] = {
        "[]",
        "7",
        "{}",
        R"({"schema": "wbsim-sim-results-v1"})",
        R"({"stalls": 1, "schema": "wbsim-sim-results-v1"})",
        R"({"schema": "x", "stalls": 1, "cycles": "y"})",
        R"({"schema": 5, "l1": []})",
        R"({"schema": "wbsim-sim-results-v1", "stalls": {"buffer_full": 1,)"
        R"( "read_access": []}, "l1": 2})",
        "{\"schema\": \"wbsim-sim-results-v1\"} x",
        "{\"schema\": 1, \"l1\": tru}",
        "{\"schema\": \"wbsim-sim-results-v1\", \"zz\": "
            + std::string(70, '[') + std::string(70, ']') + "}",
    };
    for (const std::string &text : frames)
        expectSameResults(text, text);
    // Two groups broken at once, in either document order; a group's
    // late field broken with an earlier group's first field missing.
    expectSameResults(
        edited(obs::JsonValue::parse(edited(doc, "stalls.buffer_full.max_episode",
                                            "\"x\"")),
               "stalls.read_access.cycles", nullptr),
        "buffer_full.max_episode and read_access.cycles");
    expectSameResults(
        edited(obs::JsonValue::parse(edited(doc, "wb.mean_occupancy", "-1")),
               "cycles", "1.5"),
        "wb.mean_occupancy and cycles");
    expectSameResults(
        edited(obs::JsonValue::parse(edited(doc, "store_fetch", "[]")),
               "l1.load_hits", nullptr),
        "store_fetch and l1.load_hits");
    // Repeated members: the first wins, even over a broken repeat.
    std::string repeated = golden;
    repeated.insert(repeated.find("\"cycles\""), "\"cycles\": 9, ");
    expectSameResults(repeated, "cycles repeated first");
    repeated = golden;
    repeated.insert(repeated.rfind('}'), ", \"cycles\": \"x\", \"l1\": 3");
    expectSameResults(repeated, "cycles and l1 repeated last");
    // Members in reverse order.
    std::string reversed;
    {
        obs::JsonWriter json(reversed, 0);
        json.beginObject();
        const auto &members = doc.object();
        for (auto it = members.rbegin(); it != members.rend(); ++it) {
            json.key(it->key);
            std::string member = edited(it->value, "", nullptr);
            json.rawValue(member);
        }
        json.endObject();
    }
    expectSameResults(reversed, "reversed");

    // The seeded mutator's cases.
    std::mt19937_64 rng(kFuzzSeed);
    int accepted = 0;
    for (int i = 0; i < 6000; ++i) {
        std::string text = mutate(golden, rng);
        accepted += expectSameResults(text, "case " + std::to_string(i)
                                                + ": " + text);
        if (HasFailure())
            break;
    }
    EXPECT_GT(accepted, 0);
}

} // namespace
} // namespace wbsim::serve
