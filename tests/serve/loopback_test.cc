/**
 * @file
 * Loopback tests: a real ServeServer on an ephemeral port, exercised
 * by real clients.
 *
 * The load-bearing suite is ServedBytes: for a grid spanning both
 * store-buffer kinds, multiple retirement modes, and multiple hazard
 * policies, the JSON text a served cell carries must be
 * *byte-identical* to writeSimResultsJson() of an in-process
 * runOne() of the same cell — the protocol's whole correctness
 * claim. CI also runs this binary under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/thread_pool.hh"
#include "workloads/spec92.hh"

namespace wbsim::serve
{
namespace
{

constexpr Count kInstructions = 4000;
constexpr Count kWarmup = 800;
constexpr std::uint64_t kSeed = 3;

/** Start a server on an ephemeral loopback port for one test. */
struct ServerFixture
{
    ServeServer server;

    explicit ServerFixture(ServeConfig config = {})
        : server(std::move(patch(config)))
    {
        std::string error;
        EXPECT_TRUE(server.start(error)) << error;
    }

    ~ServerFixture() { server.stop(); }

    static ServeConfig &
    patch(ServeConfig &config)
    {
        config.port = 0; // always ephemeral in tests
        if (config.workers == 0)
            config.workers = 2;
        return config;
    }

    ServeClient
    client()
    {
        ServeClient c;
        std::string error;
        EXPECT_TRUE(c.connectTcp(server.port(), error)) << error;
        return c;
    }
};

/** The baseline machine with a write buffer @p depth entries deep. */
MachineConfig
machineOfDepth(unsigned depth)
{
    MachineConfig machine = figures::baselineMachine();
    machine.writeBuffer.depth = depth;
    machine.writeBuffer.highWaterMark =
        std::min(machine.writeBuffer.highWaterMark, depth);
    machine.validate();
    return machine;
}

CellSpec
cellFor(const std::string &benchmark, const MachineConfig &machine)
{
    CellSpec cell;
    cell.benchmark = benchmark;
    cell.seed = kSeed;
    cell.instructions = kInstructions;
    cell.warmup = kWarmup;
    cell.machine = machine;
    return cell;
}

/** What a local, in-process run of @p spec serialises to — the
 *  reference bytes a served cell must reproduce exactly. */
std::string
localRender(const CellSpec &spec)
{
    BenchmarkProfile profile = spec92::profile(spec.benchmark);
    SimResults results = runOne(profile, spec.machine,
                                spec.instructions, spec.seed,
                                spec.warmup);
    obs::Provenance provenance;
    provenance.machineFingerprint = spec.machine.stateFingerprint();
    provenance.machine = spec.machine.describe();
    provenance.seed = spec.seed;
    provenance.instructions = spec.instructions;
    provenance.warmup = spec.warmup;
    std::ostringstream os;
    obs::writeSimResultsJson(os, results, provenance);
    return os.str();
}

TEST(Loopback, PingAndStats)
{
    ServerFixture fixture;
    ServeClient client = fixture.client();
    std::string error;
    EXPECT_TRUE(client.ping(error)) << error;

    std::string statsJson;
    ASSERT_TRUE(client.stats(statsJson, error)) << error;
    EXPECT_NE(std::string::npos,
              statsJson.find("\"wbsim-serve-stats-v1\""));
    EXPECT_NE(std::string::npos, statsJson.find("\"grid_cache\""));
    EXPECT_NE(std::string::npos, statsJson.find("\"queue\""));
    EXPECT_NE(std::string::npos, statsJson.find("\"store\""));
}

TEST(Loopback, ServedBytesMatchLocalRunsAcrossThePolicyGrid)
{
    // Both kinds x two retirement modes x two hazard policies —
    // the acceptance grid. One benchmark keeps the runtime sane; the
    // machine axis is what the serialisation could get wrong.
    std::vector<CellSpec> cells;
    for (BufferKind kind :
         {BufferKind::WriteBuffer, BufferKind::WriteCache}) {
        for (RetirementMode mode :
             {RetirementMode::Occupancy, RetirementMode::Paced}) {
            for (LoadHazardPolicy hazard :
                 {LoadHazardPolicy::FlushFull,
                  LoadHazardPolicy::FlushPartial}) {
                MachineConfig machine = figures::baselineMachine();
                machine.writeBuffer.kind = kind;
                machine.writeBuffer.retirementMode = mode;
                machine.writeBuffer.hazardPolicy = hazard;
                machine.validate();
                cells.push_back(cellFor("espresso", machine));
            }
        }
    }

    ServerFixture fixture;
    ServeClient client = fixture.client();
    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep(cells, 0, response, error)) << error;
    ASSERT_EQ(ResponseType::Results, response.type)
        << response.error;
    ASSERT_EQ(cells.size(), response.cells.size());

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + ": "
                     + cells[i].machine.describe());
        EXPECT_FALSE(response.cells[i].cacheHit);
        EXPECT_EQ(localRender(cells[i]),
                  response.cells[i].resultJson)
            << "served bytes diverge from the in-process render";

        SimResults decoded;
        ASSERT_TRUE(ServeClient::cellToResults(response.cells[i],
                                               decoded, error))
            << error;
        EXPECT_GT(decoded.cycles, 0u);
    }

    // The same sweep again must come from the result store with the
    // same bytes.
    Response warm;
    ASSERT_TRUE(client.sweep(cells, 0, warm, error)) << error;
    ASSERT_EQ(ResponseType::Results, warm.type);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(warm.cells[i].cacheHit);
        EXPECT_EQ(response.cells[i].resultJson,
                  warm.cells[i].resultJson);
    }
    EXPECT_EQ(cells.size(),
              fixture.server.storeStats().hits);
}

TEST(Loopback, SeedAndRunLengthChangeTheKey)
{
    ServerFixture fixture;
    ServeClient client = fixture.client();
    CellSpec base = cellFor("li", figures::baselineMachine());
    CellSpec reseeded = base;
    reseeded.seed = kSeed + 1;
    CellSpec longer = base;
    longer.instructions = kInstructions * 2;

    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep({base, reseeded, longer}, 0, response,
                             error))
        << error;
    ASSERT_EQ(ResponseType::Results, response.type)
        << response.error;
    ASSERT_EQ(3u, response.cells.size());
    // Three distinct cells: no aliasing in the store.
    EXPECT_EQ(0u, fixture.server.storeStats().hits);
    EXPECT_NE(response.cells[0].resultJson,
              response.cells[1].resultJson);
    EXPECT_NE(response.cells[0].resultJson,
              response.cells[2].resultJson);
}

/** Ask @p cell alone; its served result_json and whether it hit. */
std::pair<std::string, bool>
askOne(ServeClient &client, const CellSpec &cell)
{
    Response response;
    std::string error;
    EXPECT_TRUE(client.sweep({cell}, 0, response, error)) << error;
    EXPECT_EQ(ResponseType::Results, response.type) << response.error;
    if (response.cells.size() != 1)
        return {"", false};
    return {response.cells[0].resultJson, response.cells[0].cacheHit};
}

TEST(Loopback, ColdAndWarmCellServeTheSameBytes)
{
    // The store holds the token the miss rendered; a hit must append
    // exactly what a fresh render would have produced.
    ServerFixture fixture;
    ServeClient client = fixture.client();
    CellSpec cell = cellFor("li", figures::baselineMachine());
    const std::string local = localRender(cell);

    auto [cold, coldHit] = askOne(client, cell);
    auto [warm, warmHit] = askOne(client, cell);
    EXPECT_FALSE(coldHit);
    EXPECT_TRUE(warmHit);
    EXPECT_EQ(local, cold);
    EXPECT_EQ(local, warm);
}

TEST(Loopback, EvictedCellServesTheSameBytesWhenBackIn)
{
    // A one-shard store with room for one entry: asking a second
    // cell pushes the first out, and asking the first again
    // simulates and renders it anew.
    CellSpec cell = cellFor("li", figures::baselineMachine());
    CellSpec rival = cellFor("espresso", figures::baselineMachine());
    const std::string local = localRender(cell);
    CellKey key;
    key.benchmark = cell.benchmark;
    key.machineFingerprint = cell.machine.stateFingerprint();
    key.seed = cell.seed;
    key.instructions = cell.instructions;
    key.warmup = cell.warmup;
    ResultStore probe(0, 1);
    probe.insert(key, std::make_shared<const std::string>(
                          encodeResultToken(local)));
    const std::uint64_t entryBytes = probe.stats().bytes;

    ServeConfig config;
    config.storeShards = 1;
    config.storeBudgetBytes = std::size_t(entryBytes * 3 / 2);
    ServerFixture fixture(config);
    ServeClient client = fixture.client();

    auto [cold, coldHit] = askOne(client, cell);
    auto [warm, warmHit] = askOne(client, cell);
    askOne(client, rival);
    EXPECT_EQ(1u, fixture.server.storeStats().evictions);
    auto [again, againHit] = askOne(client, cell);
    auto [warmAgain, warmAgainHit] = askOne(client, cell);

    EXPECT_FALSE(coldHit);
    EXPECT_TRUE(warmHit);
    EXPECT_FALSE(againHit) << "the rival should have evicted the cell";
    EXPECT_TRUE(warmAgainHit);
    for (const std::string *served : {&cold, &warm, &again, &warmAgain})
        EXPECT_EQ(local, *served);
    EXPECT_EQ(2u, fixture.server.storeStats().evictions);
}

/** Send @p request on a raw connection to @p port; the Results
 *  payload exactly as the server framed it. */
std::string
rawRoundTrip(std::uint16_t port, const Request &request)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    FrameReader frames;
    std::string payload;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr)
            == 0
        && writeFrame(fd, encodeRequest(request))) {
        EXPECT_EQ(FrameResult::Ok, frames.next(fd));
        payload = frames.payload();
    } else {
        ADD_FAILURE() << "raw loopback connection failed";
    }
    ::close(fd);
    return payload;
}

TEST(Loopback, ServerResultsFrameEqualsTheClientEncoder)
{
    // The server appends stored tokens; encodeResponse re-escapes a
    // decoded document. Both must write the same bytes.
    ServerFixture fixture;
    MachineConfig deep = figures::baselineMachine();
    deep.writeBuffer.depth = 12;
    deep.validate();
    Request request;
    request.type = RequestType::Sweep;
    request.cells = {cellFor("li", figures::baselineMachine()),
                     cellFor("compress", deep)};
    // Warm one cell so the frame mixes a hit and a miss.
    ServeClient client = fixture.client();
    askOne(client, request.cells[0]);

    std::string frame = rawRoundTrip(fixture.server.port(), request);
    Response decoded;
    std::string error;
    ASSERT_TRUE(decodeResponse(frame, decoded, error)) << error;
    ASSERT_EQ(2u, decoded.cells.size());
    EXPECT_TRUE(decoded.cells[0].cacheHit);
    EXPECT_FALSE(decoded.cells[1].cacheHit);
    EXPECT_EQ(encodeResponse(decoded), frame);
}

/** The serve.cells_simulated counter in @p server's stats. */
std::uint64_t
cellsSimulated(ServeServer &server)
{
    obs::JsonValue stats = obs::JsonValue::parse(server.statsJson());
    for (const obs::JsonValue &metric : stats.at("metrics").array())
        if (metric.at("name").string() == "serve.cells_simulated")
            return metric.at("value").uint();
    ADD_FAILURE() << "stats carry no serve.cells_simulated";
    return 0;
}

TEST(Loopback, MissGroupsServeTheLocalBytes)
{
    // One sweep whose misses form three trace groups — li at two
    // warmups (one group with a 2-core cell in it) and compress —
    // plus a stored hit. Each group runs as passes over one trace;
    // every cell must still serve its own local replay's bytes, and
    // each miss is counted once, as a simulated and an admitted cell.
    MachineConfig deep = figures::baselineMachine();
    deep.writeBuffer.depth = 8;
    deep.validate();
    MachineConfig dual = figures::baselineMachine();
    dual.cores = 2;
    dual.validate();
    auto cold = [](CellSpec cell) {
        cell.warmup = 0;
        return cell;
    };
    const CellSpec hit = cellFor("li", figures::baselineMachine());
    const std::vector<CellSpec> cells = {
        cellFor("li", deep),
        hit,
        cellFor("compress", figures::baselineMachine()),
        cold(cellFor("li", figures::baselineMachine())),
        cellFor("li", dual),
        cellFor("compress", deep),
        cold(cellFor("li", deep)),
    };
    const std::size_t misses = cells.size() - 1;

    ServerFixture fixture;
    ServeClient client = fixture.client();
    askOne(client, hit);
    const std::uint64_t simulated = cellsSimulated(fixture.server);
    const std::uint64_t pushed = fixture.server.queueStats().pushed;

    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep(cells, 0, response, error)) << error;
    ASSERT_EQ(ResponseType::Results, response.type) << response.error;
    ASSERT_EQ(cells.size(), response.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + ": "
                     + cells[i].benchmark + " "
                     + cells[i].machine.describe());
        EXPECT_EQ(i == 1, response.cells[i].cacheHit);
        EXPECT_EQ(localRender(cells[i]), response.cells[i].resultJson);
    }
    EXPECT_EQ(simulated + misses, cellsSimulated(fixture.server));
    EXPECT_EQ(pushed + misses, fixture.server.queueStats().pushed);
}

TEST(Loopback, RepeatedCellIsSimulatedOnce)
{
    // A sweep naming one fresh cell three times simulates it once and
    // answers every repeat with that one token. Admission counts the
    // one distinct miss: three cells would not fit this queue.
    ServeConfig config;
    config.queueCapacity = 2;
    ServerFixture fixture(config);
    ServeClient client = fixture.client();
    const CellSpec cell = cellFor("espresso", machineOfDepth(3));
    const std::uint64_t simulated = cellsSimulated(fixture.server);
    const std::uint64_t pushed = fixture.server.queueStats().pushed;

    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep({cell, cell, cell}, 0, response, error))
        << error;
    ASSERT_EQ(ResponseType::Results, response.type) << response.error;
    ASSERT_EQ(3u, response.cells.size());
    const std::string expected = localRender(cell);
    for (const CellResult &served : response.cells) {
        EXPECT_FALSE(served.cacheHit);
        EXPECT_EQ(expected, served.resultJson);
    }
    EXPECT_EQ(simulated + 1, cellsSimulated(fixture.server));
    EXPECT_EQ(pushed + 1, fixture.server.queueStats().pushed);
}

TEST(Loopback, RejectsInvalidSweeps)
{
    ServeConfig config;
    config.maxCellsPerRequest = 4;
    config.cellInstructionCap = 100000;
    ServerFixture fixture(config);
    ServeClient client = fixture.client();
    Response response;
    std::string error;

    CellSpec good = cellFor("li", figures::baselineMachine());

    CellSpec unknown = good;
    unknown.benchmark = "quake3";
    ASSERT_TRUE(client.sweep({unknown}, 0, response, error)) << error;
    EXPECT_EQ(ResponseType::Error, response.type);
    EXPECT_NE(std::string::npos, response.error.find("quake3"));

    CellSpec zero = good;
    zero.instructions = 0;
    ASSERT_TRUE(client.sweep({zero}, 0, response, error)) << error;
    EXPECT_EQ(ResponseType::Error, response.type);

    CellSpec huge = good;
    huge.instructions = 200000;
    ASSERT_TRUE(client.sweep({huge}, 0, response, error)) << error;
    EXPECT_EQ(ResponseType::Error, response.type);
    EXPECT_NE(std::string::npos, response.error.find("cap"));

    std::vector<CellSpec> tooMany(5, good);
    ASSERT_TRUE(client.sweep(tooMany, 0, response, error)) << error;
    EXPECT_EQ(ResponseType::Error, response.type);

    // After all that abuse the connection still works.
    EXPECT_TRUE(client.ping(error)) << error;
}

TEST(Loopback, OversizedMissBatchIsAHardErrorNotRetryAfter)
{
    // A miss batch larger than the whole queue could never be
    // admitted; RETRY_AFTER would loop forever (regression: the
    // first loadgen run did exactly that).
    ServeConfig config;
    config.queueCapacity = 2;
    ServerFixture fixture(config);
    ServeClient client = fixture.client();

    std::vector<CellSpec> batch;
    for (unsigned depth = 1; depth <= 3; ++depth)
        batch.push_back(cellFor("li", machineOfDepth(depth)));
    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep(batch, 0, response, error)) << error;
    EXPECT_EQ(ResponseType::Error, response.type);
    EXPECT_NE(std::string::npos,
              response.error.find("queue capacity"))
        << response.error;
}

/** Holds every worker that reaches it until release(): plugged into
 *  ServeConfig::workerGate so a test decides when simulation starts. */
struct WorkerGate
{
    std::mutex mutex;
    std::condition_variable changed;
    unsigned held = 0;
    bool open = false;
    /** Hold only the first worker; later ones pass straight by. */
    bool firstOnly = false;

    void
    pass()
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (firstOnly && held > 0)
            return;
        ++held;
        changed.notify_all();
        changed.wait(lock, [this]() { return open; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        changed.notify_all();
    }

    /** Wait until @p count workers have reached the gate. */
    bool
    waitHeld(unsigned count = 1)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return changed.wait_for(lock, std::chrono::seconds(60),
                                [&]() { return held >= count; });
    }
};

TEST(Loopback, OverloadAnswersRetryAfterAndRetriesComplete)
{
    // One worker, one queue slot: while the worker holds a slow cell
    // and another waits in the queue, further admissions must bounce
    // with RETRY_AFTER — and honouring the hint must converge. The
    // worker is held on a gate until the prober has seen the bounce,
    // so the overload does not depend on how fast the simulator is.
    WorkerGate gate;
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 1;
    config.retryAfterMs = 5;
    config.workerGate = [&gate]() { gate.pass(); };
    ServerFixture fixture(config);

    auto slowCell = [](unsigned depth) {
        CellSpec cell = cellFor("espresso", machineOfDepth(depth));
        cell.instructions = 4'000'000;
        cell.warmup = 0;
        return cell;
    };

    std::vector<std::thread> heavy;
    // Open the gate and join on every exit, failed assertions
    // included, so the server can drain.
    struct Cleanup
    {
        WorkerGate &gate;
        std::vector<std::thread> &threads;
        ~Cleanup()
        {
            gate.release();
            for (std::thread &thread : threads)
                if (thread.joinable())
                    thread.join();
        }
    } cleanup{gate, heavy};
    for (unsigned depth = 1; depth <= 2; ++depth) {
        heavy.emplace_back([&fixture, slowCell, depth]() {
            ServeClient client = fixture.client();
            Response response;
            std::string error;
            ASSERT_TRUE(client.sweepWithRetry({slowCell(depth)}, 0,
                                              10000, response, error))
                << error;
            EXPECT_EQ(ResponseType::Results, response.type);
        });
    }

    // Overload is set up once the worker holds one slow cell and the
    // other fills the queue's only slot.
    ASSERT_TRUE(gate.waitHeld()) << "the worker never took a cell";
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (fixture.server.queueStats().depth == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the second slow cell never queued";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Hammer with cheap distinct cells until one bounces.
    ServeClient prober = fixture.client();
    bool sawRetryAfter = false;
    for (unsigned attempt = 0; attempt < 2000 && !sawRetryAfter;
         ++attempt) {
        MachineConfig machine = figures::baselineMachine();
        machine.writeBuffer.depth = 3 + attempt % 8;
        machine.validate();
        CellSpec cell = cellFor("li", machine);
        cell.seed = 100 + attempt;
        Response response;
        std::string error;
        ASSERT_TRUE(prober.sweep({cell}, 0, response, error))
            << error;
        sawRetryAfter = response.type == ResponseType::RetryAfter;
    }
    gate.release();
    for (std::thread &thread : heavy)
        thread.join();

    EXPECT_TRUE(sawRetryAfter)
        << "a 1-deep queue behind a busy worker never overflowed";
    EXPECT_GT(fixture.server.queueStats().rejected, 0u);
}

TEST(Loopback, PriorityDisciplineServesSweeps)
{
    ServeConfig config;
    config.discipline = DispatchDiscipline::Priority;
    ServerFixture fixture(config);
    ServeClient client = fixture.client();
    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep(
        {cellFor("compress", figures::baselineMachine())},
        /*priority=*/9, response, error))
        << error;
    ASSERT_EQ(ResponseType::Results, response.type)
        << response.error;
    EXPECT_EQ(localRender(
                  cellFor("compress", figures::baselineMachine())),
              response.cells[0].resultJson);
}

TEST(Loopback, ConcurrentClientsAllComplete)
{
    ServerFixture fixture;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < 6; ++c) {
        clients.emplace_back([&fixture, c]() {
            ServeClient client = fixture.client();
            CellSpec cell = cellFor("tomcatv", machineOfDepth(1 + c));
            Response response;
            std::string error;
            ASSERT_TRUE(client.sweepWithRetry({cell}, c, 100,
                                              response, error))
                << error;
            ASSERT_EQ(ResponseType::Results, response.type);
            EXPECT_FALSE(response.cells[0].resultJson.empty());
        });
    }
    for (std::thread &thread : clients)
        thread.join();
    EXPECT_EQ(6u, fixture.server.storeStats().inserts);
}

TEST(Loopback, DisconnectMidGroupStillStoresItsCells)
{
    // A client sends a sweep of three li misses (one group, run as
    // one pass per worker) and hangs up while a worker holds a pass.
    // The server keeps serving other clients meanwhile, and once the
    // held pass runs, every token of the group lands in the store and
    // serves a later request.
    WorkerGate gate;
    gate.firstOnly = true;
    ServeConfig config;
    config.workers = 2;
    config.workerGate = [&gate]() { gate.pass(); };
    ServerFixture fixture(config);
    struct Release
    {
        WorkerGate &gate;
        ~Release() { gate.release(); }
    } release{gate};

    Request request;
    request.type = RequestType::Sweep;
    for (unsigned depth : {2u, 6u, 12u})
        request.cells.push_back(cellFor("li", machineOfDepth(depth)));
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(fixture.server.port());
    ASSERT_EQ(0, ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                           sizeof addr));
    ASSERT_TRUE(writeFrame(fd, encodeRequest(request)));
    ASSERT_TRUE(gate.waitHeld()) << "the group never reached a worker";
    ::close(fd);

    // The other worker and the connection threads still serve.
    ServeClient other = fixture.client();
    std::string error;
    EXPECT_TRUE(other.ping(error)) << error;
    CellSpec elsewhere = cellFor("compress", figures::baselineMachine());
    auto [served, servedHit] = askOne(other, elsewhere);
    EXPECT_FALSE(servedHit);
    EXPECT_EQ(localRender(elsewhere), served);

    gate.release();
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (fixture.server.storeStats().inserts < 1 + request.cells.size()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the abandoned group never reached the store";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Response later;
    ASSERT_TRUE(other.sweep(request.cells, 0, later, error)) << error;
    ASSERT_EQ(ResponseType::Results, later.type) << later.error;
    ASSERT_EQ(request.cells.size(), later.cells.size());
    for (std::size_t i = 0; i < request.cells.size(); ++i) {
        EXPECT_TRUE(later.cells[i].cacheHit) << "cell " << i;
        EXPECT_EQ(localRender(request.cells[i]),
                  later.cells[i].resultJson)
            << "cell " << i;
    }
}

TEST(Loopback, LoneGroupSpreadsOverIdleWorkers)
{
    // One client sweeps eight depths of one trace on a 4-worker
    // server. The group must run as one pass per worker that can
    // run at once (four, or fewer on a host with fewer CPUs), not as
    // one worker's job while the others idle: the gate holds each
    // pass until all of them are in workers.
    const unsigned spread = std::min(4u, usableCpus());
    WorkerGate gate;
    ServeConfig config;
    config.workers = 4;
    config.workerGate = [&gate]() { gate.pass(); };
    ServerFixture fixture(config);

    std::vector<CellSpec> cells;
    for (unsigned depth = 1; depth <= 8; ++depth)
        cells.push_back(cellFor("li", machineOfDepth(depth)));
    Response response;
    std::string error;
    bool swept = false;
    std::thread sweeper([&]() {
        ServeClient client = fixture.client();
        swept = client.sweep(cells, 0, response, error);
    });
    const bool reached = gate.waitHeld(spread);
    gate.release();
    sweeper.join();
    EXPECT_TRUE(reached) << "the group did not reach " << spread
                         << " workers";
    {
        std::lock_guard<std::mutex> lock(gate.mutex);
        EXPECT_EQ(spread, gate.held) << "passes";
    }
    ASSERT_TRUE(swept) << error;
    ASSERT_EQ(ResponseType::Results, response.type) << response.error;
    ASSERT_EQ(cells.size(), response.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(localRender(cells[i]), response.cells[i].resultJson)
            << "cell " << i;
}

TEST(Loopback, LargeGroupRunsInBoundedPasses)
{
    // One worker and a sweep of 2 * kMaxCellsPerPass + 1 misses of
    // one trace: the worker must take it as three passes, so no pass
    // holds more than kMaxCellsPerPass simulators at once.
    std::atomic<unsigned> jobs{0};
    ServeConfig config;
    config.workers = 1;
    config.workerGate = [&jobs]() { jobs.fetch_add(1); };
    ServerFixture fixture(config);

    constexpr LoadHazardPolicy kPolicies[] = {
        LoadHazardPolicy::FlushFull, LoadHazardPolicy::FlushPartial,
        LoadHazardPolicy::FlushItemOnly, LoadHazardPolicy::ReadFromWB};
    std::vector<CellSpec> cells;
    for (std::size_t i = 0; i < 2 * ServeServer::kMaxCellsPerPass + 1;
         ++i) {
        MachineConfig machine = machineOfDepth(unsigned(1 + i % 16));
        machine.writeBuffer.hazardPolicy = kPolicies[i / 16 % 4];
        cells.push_back(cellFor("espresso", machine));
    }
    ServeClient client = fixture.client();
    Response response;
    std::string error;
    ASSERT_TRUE(client.sweep(cells, 0, response, error)) << error;
    ASSERT_EQ(ResponseType::Results, response.type) << response.error;
    EXPECT_EQ(3u, jobs.load());
    ASSERT_EQ(cells.size(), response.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(localRender(cells[i]), response.cells[i].resultJson)
            << "cell " << i;
}

TEST(Loopback, ClientShutdownDrainsTheServer)
{
    ServerFixture fixture;
    ServeClient client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.shutdownServer(error)) << error;
    // The request unblocks waitForShutdownRequest() promptly.
    fixture.server.waitForShutdownRequest();
    fixture.server.stop();
}

} // namespace
} // namespace wbsim::serve
