/**
 * @file
 * Hostile-input tests for the wire decoders: the strict decoder's
 * error contract, and a seeded mutation fuzzer over the committed
 * golden frames (tests/serve/golden). No external fuzzing engine:
 * a fixed seed and iteration count make every run replay the same
 * inputs, so a failure reproduces from the printed case number.
 *
 * Contract under test: decodeRequest/decodeResponse either accept a
 * payload or reject it with a non-empty error — never abort, never
 * crash — and every accepted request survives re-encoding.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "serve/wire.hh"
#include "wire_fuzz.hh"

namespace wbsim::serve
{
namespace
{

TEST(WireContract, UnknownKeyErrorNamesAlphabeticallyFirst)
{
    Request out;
    std::string error;
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "ping",)"
        R"( "zeta": 1, "mu": 2, "beta": 3, "gamma": 4})",
        out, error));
    EXPECT_EQ("request: unknown key \"beta\"", error);

    // Inside a cell, with the cell's index in the location.
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep", "cells": [)"
        R"({"benchmark": "li"}, {"benchmark": "li", "zz": 1, "aa": 2}]})",
        out, error));
    EXPECT_EQ("cells[1]: unknown key \"aa\"", error);
}

TEST(WireContract, RepeatedKeysUseTheFirstAndAreNotUnknown)
{
    Request out;
    std::string error;
    ASSERT_TRUE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep",)"
        R"( "priority": 4, "priority": 9, "type": "ping",)"
        R"( "cells": [{"benchmark": "li", "seed": 5, "seed": 6}]})",
        out, error))
        << error;
    EXPECT_EQ(RequestType::Sweep, out.type);
    EXPECT_EQ(4u, out.priority);
    ASSERT_EQ(1u, out.cells.size());
    EXPECT_EQ(5u, out.cells[0].seed);
}

TEST(WireContract, NonFiniteMachineDoublesAreRejected)
{
    // 1e999 parses to infinity, which the encoder could not write
    // back as JSON: the decoder must refuse it.
    Request out;
    std::string error;
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep", "cells": [)"
        R"({"benchmark": "li", "machine": {"bubble_probability": 1e999}}]})",
        out, error));
    EXPECT_NE(std::string::npos, error.find("bubble_probability"))
        << error;
}

/** Two requests are equal in every field their encoding carries
 *  (non-sweep requests carry only their type). */
void
expectSameRequest(const Request &a, const Request &b,
                  const std::string &context)
{
    ASSERT_EQ(a.type, b.type) << context;
    if (a.type != RequestType::Sweep)
        return;
    EXPECT_EQ(a.priority, b.priority) << context;
    ASSERT_EQ(a.cells.size(), b.cells.size()) << context;
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const CellSpec &x = a.cells[i];
        const CellSpec &y = b.cells[i];
        EXPECT_EQ(x.benchmark, y.benchmark) << context;
        EXPECT_EQ(x.seed, y.seed) << context;
        EXPECT_EQ(x.instructions, y.instructions) << context;
        EXPECT_EQ(x.warmup, y.warmup) << context;
        EXPECT_EQ(x.machine.stateFingerprint(),
                  y.machine.stateFingerprint())
            << context;
        EXPECT_EQ(x.machine.describe(), y.machine.describe())
            << context;
    }
}

TEST(WireFuzz, MutatedGoldenFramesNeverAbort)
{
    std::vector<std::string> seeds;
    for (const char *name : kFuzzFrames)
        seeds.push_back(readGolden(name));

    constexpr int kIterations = 15000;
    std::mt19937_64 rng(kFuzzSeed);
    int acceptedRequests = 0;
    int acceptedResponses = 0;
    auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) {
        const std::string &seed = seeds[std::size_t(i) % seeds.size()];
        std::string text = mutate(seed, rng);
        std::string context = "case " + std::to_string(i);

        // Every payload goes through both decoders: a request frame
        // is hostile input to decodeResponse and vice versa.
        Request request;
        std::string error;
        if (decodeRequest(text, request, error)) {
            ++acceptedRequests;
            std::string encoded = encodeRequest(request);
            Request again;
            ASSERT_TRUE(decodeRequest(encoded, again, error))
                << context << ": re-encoded request rejected: "
                << error << "\n"
                << encoded;
            expectSameRequest(request, again, context);
            EXPECT_EQ(encoded, encodeRequest(again)) << context;
        } else {
            ASSERT_FALSE(error.empty()) << context;
        }

        Response response;
        if (decodeResponse(text, response, error))
            ++acceptedResponses;
        else
            ASSERT_FALSE(error.empty()) << context;
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
    // The mutations are mild enough that some frames still decode,
    // so the round-trip half of the contract is exercised too.
    EXPECT_GT(acceptedRequests, 0);
    EXPECT_GT(acceptedResponses, 0);
    RecordProperty("accepted_requests", acceptedRequests);
    RecordProperty("accepted_responses", acceptedResponses);
    RecordProperty("seconds", std::to_string(seconds));
}

} // namespace
} // namespace wbsim::serve
