/**
 * @file
 * Differential test of the wire decoders. decodeRequest and
 * decodeResponse read a payload in one pass with obs::JsonReader; the
 * reference below is the tree decoder they replaced, kept verbatim:
 * JsonValue::tryParse, then claim-mode FieldReaders in schema order.
 * Both run over the golden frames, the seeded mutation fuzzer's
 * frames, and hand-made frames with repeated, escaped, reordered and
 * unknown keys and deep nesting. They must agree on accept or reject,
 * on every decoded value and on every error message: the one-pass
 * decoder reports the failure a schema-order walk meets first, and
 * malformed text anywhere over any failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "serve/wire.hh"
#include "wire_fuzz.hh"

namespace wbsim::serve
{
namespace
{

using obs::FieldReader;

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

} // namespace
} // namespace wbsim::serve
