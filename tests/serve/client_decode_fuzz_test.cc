/**
 * @file
 * Hostile-input tests for the client's cell decoder
 * (ServeClient::cellToResults): seeded mutations of the committed
 * sim-results golden (tests/obs/golden/sim_results.json), plus every
 * member dropped and every member retyped. A served cell comes from
 * the network, so a malformed one must come back as an error, never
 * abort the client.
 *
 * Contract under test: each case either returns false with a
 * non-empty error, or returns exactly the SimResults the document
 * states. The expected values are written out by hand from the
 * golden file, independent of the results field list.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "obs/export.hh"
#include "serve/client.hh"

#ifndef WBSIM_GOLDEN_DIR
#error "WBSIM_GOLDEN_DIR must point at tests/obs/golden"
#endif

namespace wbsim::serve
{
namespace
{

std::string
readGolden()
{
    std::ifstream in(std::string(WBSIM_GOLDEN_DIR) + "/sim_results.json",
                     std::ios::binary);
    EXPECT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The golden document's values, by hand. */
SimResults
goldenResults()
{
    SimResults r;
    r.workload = "compress";
    r.machine = "L1D=8K/L2=perfect,lat=6/4-deep/retire-at-2/flush-full";
    r.instructions = 1000;
    r.cycles = 1314;
    r.loads = 223;
    r.stores = 128;
    r.stalls.bufferFullCycles = 17;
    r.stalls.bufferFullEvents = 6;
    r.stalls.bufferFullMaxEpisode = 5;
    r.stalls.l2ReadAccessCycles = 51;
    r.stalls.l2ReadAccessEvents = 16;
    r.stalls.l2ReadAccessMaxEpisode = 5;
    r.stalls.loadHazardCycles = 6;
    r.stalls.loadHazardEvents = 1;
    r.stalls.loadHazardMaxEpisode = 6;
    r.l1LoadHits = 185;
    r.l1LoadMisses = 38;
    r.l1StoreHits = 0;
    r.l1StoreMisses = 128;
    r.wbMerges = 44;
    r.wbAllocations = 84;
    r.wbRetirements = 84;
    r.wbFlushes = 1;
    r.wbHazards = 1;
    r.wbServedLoads = 0;
    r.wbWordsWritten = 258;
    r.wbEntriesWritten = 85;
    r.wbMeanOccupancy = 1.7421875;
    r.l2ReadHits = 38;
    r.l2ReadMisses = 0;
    r.l2WriteHits = 85;
    r.l2WriteMisses = 0;
    return r; // mem, ifetch, barrier, store_fetch: all zero
}

/** Members the decoder must not need: the provenance and the
 *  derived rates and percentages (a path ignores its subtree). */
const std::set<std::string> kUnread = {
    "provenance",         "stalls.pct",      "stalls.tail",
    "l1.load_hit_rate",   "wb.merge_rate",   "l2.read_hit_rate",
};

bool
unread(const std::string &path)
{
    for (const std::string &prefix : kUnread)
        if (path == prefix || path.rfind(prefix + ".", 0) == 0)
            return true;
    return false;
}

bool
decode(const std::string &text, SimResults &out, std::string &error)
{
    CellResult cell;
    cell.resultJson = text;
    return ServeClient::cellToResults(cell, out, error);
}

/** Every read member of @p doc holds exactly the value that
 *  @p rendered (the decoded result, written back) gives it. */
void
expectStatedValues(const obs::JsonValue &doc,
                   const obs::JsonValue &rendered,
                   const std::string &path, const std::string &context)
{
    for (const auto &member : rendered.object()) {
        std::string at = path.empty() ? member.key
                                      : path + "." + member.key;
        if (unread(at))
            continue;
        const obs::JsonValue *stated = doc.find(member.key);
        ASSERT_NE(stated, nullptr) << context << ": " << at;
        const obs::JsonValue &mine = member.value;
        if (mine.isObject()) {
            ASSERT_TRUE(stated->isObject()) << context << ": " << at;
            expectStatedValues(*stated, mine, at, context);
        } else if (mine.isString()) {
            ASSERT_TRUE(stated->isString()) << context << ": " << at;
            EXPECT_EQ(stated->string(), mine.string())
                << context << ": " << at;
        } else {
            ASSERT_TRUE(stated->isNumber()) << context << ": " << at;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(stated->number()),
                      std::bit_cast<std::uint64_t>(mine.number()))
                << context << ": " << at;
            if (mine.isUint()) {
                EXPECT_EQ(stated->uint(), mine.uint())
                    << context << ": " << at;
            }
        }
    }
}

/** Re-render @p value, leaving out the member at @p target (drop) or
 *  replacing its value with @p replacement (retype). */
void
render(obs::JsonWriter &json, const obs::JsonValue &value,
       const std::string &path, const std::string &target,
       const char *replacement)
{
    switch (value.kind()) {
    case obs::JsonValue::Kind::Object:
        json.beginObject();
        for (const auto &member : value.object()) {
            std::string at = path.empty() ? member.key
                                          : path + "." + member.key;
            if (at == target && replacement == nullptr)
                continue;
            json.key(member.key);
            if (at == target)
                json.rawValue(replacement);
            else
                render(json, member.value, at, target, replacement);
        }
        json.endObject();
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
    default:
        FAIL() << "unexpected kind at " << path;
    }
}

/** Every member path of @p value, parents before children. */
void
collectPaths(const obs::JsonValue &value, const std::string &path,
             std::vector<std::string> &out)
{
    if (!value.isObject())
        return;
    for (const auto &member : value.object()) {
        std::string at = path.empty() ? member.key
                                      : path + "." + member.key;
        out.push_back(at);
        collectPaths(member.value, at, out);
    }
}

TEST(ClientDecode, GoldenDocumentDecodesExactly)
{
    SimResults out;
    std::string error;
    ASSERT_TRUE(decode(readGolden(), out, error)) << error;
    EXPECT_TRUE(out == goldenResults());
}

TEST(ClientDecode, DroppedOrRetypedMembersFailUnlessUnread)
{
    obs::JsonValue golden;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::tryParse(readGolden(), golden, error));
    std::vector<std::string> paths;
    collectPaths(golden, "", paths);
    ASSERT_EQ(paths.size(), 71u);

    int failures = 0;
    for (const std::string &path : paths) {
        // Drop, then two retypes: to a string (or, for a string, a
        // number) and to null.
        const obs::JsonValue *node = &golden;
        std::istringstream keys(path);
        for (std::string key; std::getline(keys, key, '.');)
            node = node->find(key);
        const char *retypes[] = {nullptr,
                                 node->isString() ? "7" : "\"7\"",
                                 "null"};
        for (const char *replacement : retypes) {
            std::string text;
            obs::JsonWriter json(text);
            render(json, golden, "", path, replacement);
            std::string context =
                path + (replacement ? std::string(" -> ") + replacement
                                    : std::string(" dropped"));
            SimResults out;
            bool ok = decode(text, out, error);
            if (unread(path)) {
                ASSERT_TRUE(ok) << context << ": " << error;
                EXPECT_TRUE(out == goldenResults()) << context;
            } else {
                EXPECT_FALSE(ok) << context;
                EXPECT_FALSE(error.empty()) << context;
                ++failures;
            }
        }
    }
    RecordProperty("rejected", failures);
}

TEST(ClientDecode, ErrorsNameTheMembersPath)
{
    obs::JsonValue golden;
    std::string error;
    ASSERT_TRUE(obs::JsonValue::tryParse(readGolden(), golden, error));
    auto rejection = [&](const std::string &path, const char *with) {
        std::string text;
        obs::JsonWriter json(text);
        render(json, golden, "", path, with);
        SimResults out;
        EXPECT_FALSE(decode(text, out, error)) << path;
        return error;
    };
    EXPECT_EQ("result: cycles is missing", rejection("cycles", nullptr));
    EXPECT_EQ("stalls.read_access: events must be an unsigned integer",
              rejection("stalls.read_access.events", "1.5"));
    EXPECT_EQ("stalls: load_hazard is missing",
              rejection("stalls.load_hazard", nullptr));
    EXPECT_EQ("wb: mean_occupancy must be a number",
              rejection("wb.mean_occupancy", "\"x\""));
    EXPECT_EQ("store_fetch: must be a JSON object",
              rejection("store_fetch", "[]"));
    EXPECT_EQ("result: unsupported schema \"v0\"",
              rejection("schema", "\"v0\""));
}

/** One seeded mutation: flipped bits, inserted bytes or a
 *  truncation. */
std::string
mutate(const std::string &text, std::mt19937_64 &rng)
{
    std::string out = text;
    int rounds = 1 + int(rng() % 3);
    for (int round = 0; round < rounds && !out.empty(); ++round) {
        std::size_t at = std::size_t(rng() % out.size());
        switch (rng() % 3) {
        case 0:
            out[at] ^= char(1u << (rng() % 8));
            break;
        case 1:
            out.insert(at, 1, char(rng() % 256));
            break;
        default:
            out.resize(at);
            break;
        }
    }
    return out;
}

class ClientDecodeFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ClientDecodeFuzz, MutationsFailOrDecodeWhatTheyState)
{
    const std::string golden = readGolden();
    std::mt19937_64 rng(GetParam());
    int accepted = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string text = mutate(golden, rng);
        std::string context = "case " + std::to_string(i);
        SimResults out;
        std::string error;
        if (!decode(text, out, error)) {
            ASSERT_FALSE(error.empty()) << context;
            continue;
        }
        ++accepted;
        obs::JsonValue doc;
        obs::JsonValue rendered;
        ASSERT_TRUE(obs::JsonValue::tryParse(text, doc, error));
        std::ostringstream os;
        obs::writeSimResultsJson(os, out, obs::Provenance{});
        ASSERT_TRUE(obs::JsonValue::tryParse(os.str(), rendered, error));
        expectStatedValues(doc, rendered, "", context);
        if (HasFatalFailure())
            return;
    }
    // Some mutations land in whitespace, the provenance or a derived
    // member, so the success half of the contract runs too.
    EXPECT_GT(accepted, 0);
    RecordProperty("accepted", accepted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientDecodeFuzz,
                         ::testing::Values(1, 7, 1009));

} // namespace
} // namespace wbsim::serve
