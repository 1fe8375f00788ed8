/**
 * @file
 * Wire-protocol tests: framing over real socketpairs, strict JSON
 * decoding, and golden request/response fixtures that pin the
 * on-the-wire bytes (regenerate with WBSIM_UPDATE_GOLDEN=1 and
 * review the diff — the fixtures are the protocol contract).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/figures.hh"
#include "serve/wire.hh"

#ifndef WBSIM_SERVE_GOLDEN_DIR
#error "WBSIM_SERVE_GOLDEN_DIR must point at tests/serve/golden"
#endif

namespace wbsim::serve
{
namespace
{

/** A connected AF_UNIX stream pair that closes on scope exit. */
struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    }

    ~SocketPair()
    {
        for (int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }

    int a() const { return fds[0]; }
    int b() const { return fds[1]; }

    void
    closeA()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
};

TEST(WireFrame, RoundTripsPayloads)
{
    SocketPair pair;
    ASSERT_TRUE(writeFrame(pair.a(), "hello frames"));
    ASSERT_TRUE(writeFrame(pair.a(), ""));
    FrameReader frames;
    EXPECT_EQ(FrameResult::Ok, frames.next(pair.b()));
    EXPECT_EQ("hello frames", frames.payload());
    EXPECT_EQ(FrameResult::Ok, frames.next(pair.b()));
    EXPECT_EQ("", frames.payload());
}

TEST(WireFrame, OrderlyCloseIsEof)
{
    SocketPair pair;
    pair.closeA();
    FrameReader frames;
    EXPECT_EQ(FrameResult::Eof, frames.next(pair.b()));
}

TEST(WireFrame, RejectsBadMagic)
{
    SocketPair pair;
    const char junk[] = "HTTP/1.1 GET /";
    ASSERT_EQ(ssize_t(sizeof junk),
              ::send(pair.a(), junk, sizeof junk, 0));
    FrameReader frames;
    EXPECT_EQ(FrameResult::BadMagic, frames.next(pair.b()));
}

TEST(WireFrame, RejectsOversizedFrame)
{
    SocketPair pair;
    // Hand-build a header whose length prefix exceeds the cap; no
    // payload bytes should even be read.
    unsigned char header[8] = {'W', 'B', 'S', '1',
                               0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(ssize_t(sizeof header),
              ::send(pair.a(), header, sizeof header, 0));
    FrameReader frames(/*maxBytes=*/1024);
    EXPECT_EQ(FrameResult::TooLarge, frames.next(pair.b()));
}

TEST(WireFrame, TruncatedFrameIsError)
{
    SocketPair pair;
    unsigned char header[8] = {'W', 'B', 'S', '1', 0, 0, 0, 100};
    ASSERT_EQ(ssize_t(sizeof header),
              ::send(pair.a(), header, sizeof header, 0));
    ASSERT_EQ(3, ::send(pair.a(), "abc", 3, 0));
    pair.closeA(); // die mid-frame
    FrameReader frames;
    EXPECT_EQ(FrameResult::Error, frames.next(pair.b()));
}

/** A sweep request exercising non-default values of every layer. */
Request
sampleSweep()
{
    Request request;
    request.type = RequestType::Sweep;
    request.priority = 7;
    CellSpec cell;
    cell.benchmark = "espresso";
    cell.seed = 42;
    cell.instructions = 20000;
    cell.warmup = 5000;
    cell.machine = figures::baselineMachine();
    cell.machine.writeBuffer.kind = BufferKind::WriteCache;
    cell.machine.writeBuffer.depth = 6;
    cell.machine.writeBuffer.highWaterMark = 3;
    cell.machine.writeBuffer.retirementMode = RetirementMode::Paced;
    cell.machine.writeBuffer.pacedRefillPeriod = 9;
    cell.machine.writeBuffer.pacedBurst = 2;
    cell.machine.writeBuffer.hazardPolicy =
        LoadHazardPolicy::ReadFromWB;
    cell.machine.l2Latency = 11;
    cell.machine.issueWidth = 2;
    request.cells.push_back(cell);
    CellSpec second = request.cells.front();
    second.benchmark = "tomcatv";
    second.machine.writeBuffer.kind = BufferKind::WriteBuffer;
    second.machine.writeBuffer.retirementMode =
        RetirementMode::FixedRate;
    second.machine.writeBuffer.fixedRatePeriod = 5;
    second.machine.writeBuffer.hazardPolicy =
        LoadHazardPolicy::FlushPartial;
    request.cells.push_back(second);
    return request;
}

TEST(WireRequest, EncodeDecodeRoundTrips)
{
    Request request = sampleSweep();
    Request decoded;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), decoded, error))
        << error;
    EXPECT_EQ(RequestType::Sweep, decoded.type);
    EXPECT_EQ(7u, decoded.priority);
    ASSERT_EQ(2u, decoded.cells.size());
    const CellSpec &cell = decoded.cells.front();
    EXPECT_EQ("espresso", cell.benchmark);
    EXPECT_EQ(42u, cell.seed);
    EXPECT_EQ(20000u, cell.instructions);
    EXPECT_EQ(5000u, cell.warmup);
    // The machine must survive the trip *exactly* — the fingerprint
    // hashes every field, so one lost knob changes it.
    EXPECT_EQ(request.cells[0].machine.stateFingerprint(),
              cell.machine.stateFingerprint());
    EXPECT_EQ(request.cells[1].machine.stateFingerprint(),
              decoded.cells[1].machine.stateFingerprint());
}

TEST(WireRequest, TopologyFieldsRoundTrip)
{
    // cores / bus_discipline ride the machine object; the
    // fingerprint hashes them at cores > 1, so exact-trip equality
    // is the whole test.
    Request request = sampleSweep();
    request.cells.resize(1);
    request.cells[0].machine.cores = 4;
    request.cells[0].machine.busDiscipline = BusDiscipline::Priority;
    Request decoded;
    std::string error;
    ASSERT_TRUE(decodeRequest(encodeRequest(request), decoded, error))
        << error;
    ASSERT_EQ(1u, decoded.cells.size());
    EXPECT_EQ(4u, decoded.cells[0].machine.cores);
    EXPECT_EQ(BusDiscipline::Priority,
              decoded.cells[0].machine.busDiscipline);
    EXPECT_EQ(request.cells[0].machine.stateFingerprint(),
              decoded.cells[0].machine.stateFingerprint());

    // A single-core machine encodes without the topology keys: the
    // pre-topology wire bytes (and their golden fixtures) survive.
    Request solo = sampleSweep();
    EXPECT_EQ(std::string::npos,
              encodeRequest(solo).find("\"cores\""));
    EXPECT_EQ(std::string::npos,
              encodeRequest(solo).find("bus_discipline"));
}

TEST(WireRequest, RejectsUnknownBusDiscipline)
{
    Request out;
    std::string error;
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep",)"
        R"( "cells": [{"benchmark": "li", "instructions": 100,)"
        R"( "machine": {"cores": 2, "bus_discipline": "lottery"}}]})",
        out, error));
    EXPECT_NE(std::string::npos, error.find("bus_discipline"))
        << error;
}

TEST(WireRequest, RejectsGarbageAndMismatches)
{
    Request out;
    std::string error;

    EXPECT_FALSE(decodeRequest("not json at all", out, error));
    EXPECT_FALSE(error.empty());

    // Version mismatch: a hypothetical v2 peer must be turned away
    // with a message that names the schema this server speaks.
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v2", "type": "ping"})", out,
        error));
    EXPECT_NE(std::string::npos, error.find("wbsim-serve-req-v1"))
        << error;

    // Unknown keys fail loudly instead of silently ignoring a typo.
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "ping",)"
        R"( "prioritty": 3})",
        out, error));
    EXPECT_NE(std::string::npos, error.find("prioritty")) << error;

    // Type mismatch on a known field.
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "ping",)"
        R"( "priority": "high"})",
        out, error));

    // A sweep with no cells is meaningless.
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep",)"
        R"( "cells": []})",
        out, error));

    // Unknown enum value inside the machine config.
    EXPECT_FALSE(decodeRequest(
        R"({"schema": "wbsim-serve-req-v1", "type": "sweep",)"
        R"( "cells": [{"benchmark": "li", "instructions": 100,)"
        R"( "machine": {"write_buffer": {"kind": "write-heap"}}}]})",
        out, error));
}

TEST(WireResponse, EncodeDecodeRoundTrips)
{
    Response response;
    response.type = ResponseType::Results;
    CellResult cell;
    cell.benchmark = "li";
    cell.resultJson = "{\"schema\": \"wbsim-sim-results-v1\"}\n";
    cell.cacheHit = true;
    response.cells.push_back(cell);

    Response decoded;
    std::string error;
    ASSERT_TRUE(
        decodeResponse(encodeResponse(response), decoded, error))
        << error;
    EXPECT_EQ(ResponseType::Results, decoded.type);
    ASSERT_EQ(1u, decoded.cells.size());
    EXPECT_EQ("li", decoded.cells[0].benchmark);
    EXPECT_TRUE(decoded.cells[0].cacheHit);
    // The embedded result document survives byte-for-byte.
    EXPECT_EQ(cell.resultJson, decoded.cells[0].resultJson);

    Response retry;
    retry.type = ResponseType::RetryAfter;
    retry.retryAfterMs = 75;
    ASSERT_TRUE(decodeResponse(encodeResponse(retry), decoded, error))
        << error;
    EXPECT_EQ(ResponseType::RetryAfter, decoded.type);
    EXPECT_EQ(75u, decoded.retryAfterMs);

    Response failed;
    failed.type = ResponseType::Error;
    failed.error = "cells[0]: unknown benchmark \"doom\"";
    ASSERT_TRUE(
        decodeResponse(encodeResponse(failed), decoded, error))
        << error;
    EXPECT_EQ(ResponseType::Error, decoded.type);
    EXPECT_EQ(failed.error, decoded.error);
}

TEST(WireResponse, RejectsWrongSchema)
{
    Response out;
    std::string error;
    EXPECT_FALSE(decodeResponse(
        R"({"schema": "wbsim-serve-resp-v9", "type": "pong"})", out,
        error));
    EXPECT_NE(std::string::npos, error.find("wbsim-serve-resp-v1"))
        << error;
}

bool
updateMode()
{
    const char *env = std::getenv("WBSIM_UPDATE_GOLDEN");
    return env != nullptr && *env != '\0' && *env != '0';
}

/** Compare @p actual against golden fixture @p name (or regenerate
 *  it). Same contract as tests/obs/golden_test.cc. */
void
expectGolden(const std::string &name, const std::string &actual)
{
    std::string path =
        std::string(WBSIM_SERVE_GOLDEN_DIR) + "/" + name;
    if (updateMode()) {
        std::ofstream out(path, std::ios::binary);
        out << actual;
        ASSERT_TRUE(out.good()) << "failed to write " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path
        << " missing - run with WBSIM_UPDATE_GOLDEN=1 to create";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), actual)
        << "wire fixture drift in " << name
        << " - if deliberate, bump the schema version and "
           "regenerate with WBSIM_UPDATE_GOLDEN=1";
}

TEST(WireGolden, SweepRequestBytes)
{
    expectGolden("sweep_request.json", encodeRequest(sampleSweep()));
    // The client's sweep encodes straight from its cells.
    const Request sweep = sampleSweep();
    expectGolden("sweep_request.json",
                 encodeSweepRequest(sweep.priority, sweep.cells));
}

TEST(WireGolden, ControlRequestBytes)
{
    Request ping;
    ping.type = RequestType::Ping;
    expectGolden("ping_request.json", encodeRequest(ping));
    Request shutdown;
    shutdown.type = RequestType::Shutdown;
    expectGolden("shutdown_request.json", encodeRequest(shutdown));
}

TEST(WireGolden, ResponseBytes)
{
    Response response;
    response.type = ResponseType::Results;
    CellResult cell;
    cell.benchmark = "espresso";
    cell.resultJson = "{\"schema\": \"wbsim-sim-results-v1\"}\n";
    cell.cacheHit = false;
    response.cells.push_back(cell);
    expectGolden("results_response.json", encodeResponse(response));

    Response retry;
    retry.type = ResponseType::RetryAfter;
    retry.retryAfterMs = 50;
    expectGolden("retry_after_response.json", encodeResponse(retry));
}

TEST(WireGolden, FixturesStillDecode)
{
    // The committed fixtures must round-trip through the decoders:
    // this is the compatibility half of the contract (an old client's
    // bytes keep working).
    if (updateMode())
        GTEST_SKIP() << "regenerating fixtures";
    for (const char *name :
         {"sweep_request.json", "ping_request.json",
          "shutdown_request.json"}) {
        std::ifstream in(std::string(WBSIM_SERVE_GOLDEN_DIR) + "/"
                         + name);
        ASSERT_TRUE(in.good()) << name;
        std::stringstream text;
        text << in.rdbuf();
        Request request;
        std::string error;
        EXPECT_TRUE(decodeRequest(text.str(), request, error))
            << name << ": " << error;
    }
    for (const char *name :
         {"results_response.json", "retry_after_response.json"}) {
        std::ifstream in(std::string(WBSIM_SERVE_GOLDEN_DIR) + "/"
                         + name);
        ASSERT_TRUE(in.good()) << name;
        std::stringstream text;
        text << in.rdbuf();
        Response response;
        std::string error;
        EXPECT_TRUE(decodeResponse(text.str(), response, error))
            << name << ": " << error;
    }
}

} // namespace
} // namespace wbsim::serve
