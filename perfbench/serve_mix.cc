/**
 * @file
 * serve_mix: an in-process ServeServer on loopback with kWorkers
 * workers, driven closed-loop by kClients connections (so at most
 * four threads are runnable at once: a client or its connection
 * thread per connection, plus the workers), all on one CPU. Each
 * request is 8 cells.
 *
 *  - 3 of every 4 requests are all-hit: cells drawn from a hot set
 *    preloaded in set-up. This is the read path: frame, decode,
 *    store lookup, JSON render, encode.
 *  - 1 of every 4 is all-miss, with short cells never asked before.
 *    This is the write path: admission, queue, worker runOne, store
 *    insert, and eviction under a store budget far smaller than the
 *    key set.
 *
 * Every request sequence is generated before timing. Miss cells use
 * only the five seven-letter profile names, so every miss entry has
 * the same store footprint and the eviction count does not depend
 * on how the two workers interleave; hot keys are touched far more
 * often than a store shard turns over, so they are never evicted.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "util/thread_pool.hh"
#include "workloads/spec92.hh"

namespace perfbench
{

using namespace wbsim;
using serve::ServeClient;
using serve::ServeServer;

namespace
{

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;

/** CPUs the server and clients run on. On the 4-vCPU reference host,
 *  every hand-off between threads on different vCPUs paid the
 *  hypervisor's wake-up delay: spread over three vCPUs, cells/s and
 *  p99 swung by 25-45% from run to run. On one, every wake-up is local
 *  and both held within 5%; the run then measures the serve path's
 *  CPU cost and its queueing, not cross-vCPU wake-ups. */
constexpr unsigned kCpus = 1;
constexpr std::size_t kCellsPerRequest = 8;
constexpr std::size_t kMissEvery = 4;

/** Hot cells: long enough that a miss on one would stand out. */
constexpr std::size_t kHotCells = 64;
constexpr Count kHotInstructions = 200'000;
constexpr Count kHotWarmup = 50'000;

/** Miss cells: short, so the write path is not all simulation. */
constexpr Count kMissInstructions = 30'000;
constexpr Count kMissWarmup = 6'000;
const char *const kMissProfiles[] = {"hydro2d", "mdljsp2", "tomcatv",
                                     "mdljdp2", "cholsky"};

/** Server sizing: the store holds the hot set many times over but
 *  far fewer entries than one run's miss cells; the queue takes both
 *  clients' miss batches at once, so RETRY_AFTER never fires. */
constexpr std::size_t kStoreBudgetBytes = 1u << 20;
constexpr std::size_t kGridBudgetBytes = 32u << 20;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::uint32_t kRetryAfterMs = 5;
constexpr unsigned kMaxAttempts = 200;

/** Requests generated per client; a run that exhausts them ends. */
constexpr std::size_t kPoolRequests = 12000;

/** Cold set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/** The timed region is this many phases, the process on the next CPU
 *  it may use for each; the end-to-end figures are the phase's that
 *  answered the most cells, the one on the least disturbed CPU. */
constexpr int kPhases = 4;


/** Traced run: alternating untraced/traced phases of this many
 *  requests per client. */
constexpr int kTracedPairs = 2;
constexpr std::size_t kTracedPhaseRequests = 150;

/** Requests and responses kept for the wire-codec timings. */
constexpr std::size_t kWireSamples = 32;

/** A client's hit requests cycle through kHotCells / 8 fixed groups
 *  (a seeded partition of the hot set), so every hot key is touched
 *  once per that many hit requests. */
constexpr std::size_t kHitGroups = kHotCells / kCellsPerRequest;

struct HitGroup
{
    /** Hot-set index of each cell. */
    std::array<std::size_t, kCellsPerRequest> hot{};
    std::vector<serve::CellSpec> cells;
};

struct PoolRequest
{
    bool miss = false;
    /** Index into the client's hit groups (hit requests). */
    std::size_t group = 0;
    /** The cells (miss requests). */
    std::vector<serve::CellSpec> cells;
};

/** One answered (or failed) request. */
struct Served
{
    std::size_t index = 0;
    double doneSeconds = 0.0;
    double latencyMs = 0.0;
    bool miss = false;
    std::string error;
    std::array<std::uint64_t, kCellsPerRequest> hashes{};
};

struct ClientLog
{
    std::vector<Served> served;
    std::uint64_t retries = 0;
    std::vector<serve::Response> hitResponses, missResponses;
};

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** The exact bytes an in-process run of @p spec serves. */
std::string
render(const serve::CellSpec &spec, const SimResults &results)
{
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

SimResults
referenceRun(const serve::CellSpec &spec)
{
    return runOne(spec92::profile(spec.benchmark), spec.machine,
                  spec.instructions, spec.seed, spec.warmup);
}

MachineConfig
variantMachine(unsigned depth, LoadHazardPolicy hazard)
{
    MachineConfig machine = figures::baselineMachine();
    machine.writeBuffer.depth = depth;
    machine.writeBuffer.highWaterMark =
        std::min(machine.writeBuffer.highWaterMark, depth);
    machine.writeBuffer.hazardPolicy = hazard;
    return machine;
}

/** Everything fixed before timing. */
struct Plan
{
    std::vector<serve::CellSpec> hot;
    /** Per client: its hit groups and its request sequence. */
    std::vector<std::vector<HitGroup>> groups;
    std::vector<std::vector<PoolRequest>> pools;

    const std::vector<serve::CellSpec> &
    cells(unsigned client, const PoolRequest &request) const
    {
        return request.miss ? request.cells
                            : groups[client][request.group].cells;
    }
};

Plan
makePlan(std::uint64_t seed)
{
    Plan plan;
    std::vector<serve::CellSpec> candidates;
    for (const std::string &name : spec92::benchmarkNames())
        for (unsigned depth = 1; depth <= 8; ++depth)
            for (LoadHazardPolicy hazard :
                 {LoadHazardPolicy::FlushFull,
                  LoadHazardPolicy::FlushPartial}) {
                serve::CellSpec cell;
                cell.benchmark = name;
                cell.seed = seed;
                cell.instructions = kHotInstructions;
                cell.warmup = kHotWarmup;
                cell.machine = variantMachine(depth, hazard);
                candidates.push_back(std::move(cell));
            }
    shuffle(candidates, hashCombine(seed, 0x4075e7));
    candidates.resize(kHotCells);
    plan.hot = std::move(candidates);

    std::uint64_t missSeed = seed + 1;
    for (unsigned client = 0; client < kClients; ++client) {
        std::vector<std::size_t> order(kHotCells);
        for (std::size_t i = 0; i < kHotCells; ++i)
            order[i] = i;
        shuffle(order, hashCombine(seed, 0x9a0 + client));
        std::vector<HitGroup> groups(kHitGroups);
        for (std::size_t i = 0; i < kHotCells; ++i) {
            HitGroup &group = groups[i / kCellsPerRequest];
            group.hot[i % kCellsPerRequest] = order[i];
            group.cells.push_back(plan.hot[order[i]]);
        }
        plan.groups.push_back(std::move(groups));

        std::vector<PoolRequest> pool(kPoolRequests);
        std::size_t hits = 0, misses = 0;
        for (std::size_t k = 0; k < kPoolRequests; ++k) {
            PoolRequest &request = pool[k];
            request.miss = (k + client) % kMissEvery == kMissEvery - 1;
            if (!request.miss) {
                request.group = hits++ % kHitGroups;
            } else {
                const char *name =
                    kMissProfiles[(misses + client)
                                  % std::size(kMissProfiles)];
                LoadHazardPolicy hazard =
                    misses % 2 ? LoadHazardPolicy::FlushFull
                               : LoadHazardPolicy::FlushPartial;
                ++misses;
                for (unsigned d = 1; d <= kCellsPerRequest; ++d) {
                    serve::CellSpec cell;
                    cell.benchmark = name;
                    cell.seed = missSeed;
                    cell.instructions = kMissInstructions;
                    cell.warmup = kMissWarmup;
                    cell.machine = variantMachine(d, hazard);
                    request.cells.push_back(std::move(cell));
                }
                ++missSeed;
            }
        }
        plan.pools.push_back(std::move(pool));
    }
    return plan;
}

/** One sweep with RETRY_AFTER handling; false on a transport error,
 *  a non-Results answer, or exhausted retries. */
bool
sweep(ServeClient &client, const std::vector<serve::CellSpec> &cells,
      serve::Response &response, std::uint64_t &retries,
      std::string &error)
{
    for (unsigned attempt = 1;; ++attempt) {
        if (!client.sweep(cells, 0, response, error))
            return false;
        if (response.type == serve::ResponseType::Results)
            break;
        if (response.type != serve::ResponseType::RetryAfter) {
            error = std::string("unexpected ")
                    + serve::responseTypeName(response.type) + ": "
                    + response.error;
            return false;
        }
        if (attempt >= kMaxAttempts) {
            error = "still backpressured after "
                    + std::to_string(attempt) + " attempts";
            return false;
        }
        ++retries;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(response.retryAfterMs));
    }
    if (response.cells.size() != cells.size()) {
        error = std::to_string(response.cells.size()) + " cells for "
                + std::to_string(cells.size()) + " asked";
        return false;
    }
    return true;
}

std::unique_ptr<ServeServer>
startServer()
{
    serve::ServeConfig config;
    config.port = 0;
    config.workers = kWorkers;
    config.queueCapacity = kQueueCapacity;
    config.storeBudgetBytes = kStoreBudgetBytes;
    config.retryAfterMs = kRetryAfterMs;
    auto server = std::make_unique<ServeServer>(config);
    std::string error;
    if (!server->start(error))
        wbsim_fatal("perfbench: server failed to start: ", error);
    return server;
}

/** Preload the hot set; returns each hot cell's served hash. */
std::vector<std::uint64_t>
preload(const ServeServer &server, const Plan &plan, Report &report)
{
    std::vector<std::uint64_t> hashes(plan.hot.size(), 0);
    ServeClient client;
    std::string error;
    if (!client.connectTcp(server.port(), error))
        wbsim_fatal("perfbench: connect: ", error);
    for (std::size_t first = 0; first < plan.hot.size();
         first += kCellsPerRequest) {
        std::size_t last =
            std::min(first + kCellsPerRequest, plan.hot.size());
        std::vector<serve::CellSpec> cells(plan.hot.begin() + long(first),
                                           plan.hot.begin() + long(last));
        serve::Response response;
        std::uint64_t retries = 0;
        report.attempt();
        if (!sweep(client, cells, response, retries, error)) {
            report.fail("preload: " + error);
            continue;
        }
        for (std::size_t i = 0; i < cells.size(); ++i)
            hashes[first + i] = fnv1a(response.cells[i].resultJson);
    }
    return hashes;
}

/** How a phase ends: after @p requests per client, or (when 0) once
 *  @p seconds have passed and the pool holds kTailSamples latencies. */
struct PhaseLimit
{
    std::size_t requests = 0;
    double seconds = 0.0;
};

struct PhaseOutcome
{
    double seconds = 0.0;
    /** When the first client stopped: until then every client was
     *  busy. */
    double firstStop = 0.0;
};

/**
 * Drive every client closed-loop over its pool, from @p next onward,
 * until @p limit. When @p spans is given, each client's requests are
 * spans under one root per client, whose coverage is added to
 * @p covered / @p rootUs.
 */
PhaseOutcome
runPhase(const ServeServer &server, const Plan &plan,
         std::vector<std::size_t> &next, PhaseLimit limit,
         SpanRecorder *spans, std::vector<ClientLog> &logs,
         double &covered, double &rootUs)
{
    std::atomic<std::size_t> done{0};
    std::vector<double> stops(kClients, 0.0);
    std::vector<int> roots(kClients, -1);
    Clock::time_point begin = Clock::now();
    auto finished = [&](std::size_t sent) {
        if (limit.requests != 0)
            return sent >= limit.requests;
        double elapsed = secondsSince(begin);
        return (elapsed >= limit.seconds && done.load() >= kTailSamples)
               || elapsed >= kMaxTimedSeconds;
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            const std::vector<PoolRequest> &pool = plan.pools[c];
            ClientLog &log = logs[c];
            ServeClient client;
            std::string error;
            if (!client.connectTcp(server.port(), error)) {
                Served failed;
                failed.error = "connect: " + error;
                log.served.push_back(std::move(failed));
                return;
            }
            if (spans)
                roots[c] = spans->begin("bench.client_phase", -1, 0, c);
            for (std::size_t sent = 0;
                 next[c] < pool.size() && !finished(sent); ++sent) {
                const PoolRequest &request = pool[next[c]];
                Served served;
                served.index = next[c]++;
                served.miss = request.miss;
                int span = -1;
                if (spans)
                    span = spans->begin(request.miss
                                            ? "serve.miss_request"
                                            : "serve.hit_request",
                                        roots[c], served.index, c);
                serve::Response response;
                Clock::time_point sentAt = Clock::now();
                bool ok = sweep(client, plan.cells(c, request), response,
                                log.retries, served.error);
                Clock::time_point answered = Clock::now();
                if (spans)
                    spans->end(span);
                served.latencyMs =
                    std::chrono::duration<double, std::milli>(answered
                                                              - sentAt)
                        .count();
                served.doneSeconds =
                    std::chrono::duration<double>(answered - begin)
                        .count();
                if (ok) {
                    for (std::size_t i = 0; i < response.cells.size();
                         ++i)
                        served.hashes[i] =
                            fnv1a(response.cells[i].resultJson);
                    auto &kept = request.miss ? log.missResponses
                                              : log.hitResponses;
                    if (spans && kept.size() < kWireSamples)
                        kept.push_back(std::move(response));
                } else if (served.error.empty()) {
                    served.error = "sweep failed";
                }
                log.served.push_back(std::move(served));
                done.fetch_add(1);
            }
            if (spans)
                spans->end(roots[c]);
            stops[c] = secondsSince(begin);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    PhaseOutcome outcome;
    outcome.seconds = secondsSince(begin);
    outcome.firstStop = *std::min_element(stops.begin(), stops.end());
    for (int root : roots) {
        covered += spans ? spans->childCoverageUs(root) : 0.0;
        rootUs += spans ? spans->durationUs(root) : 0.0;
    }
    return outcome;
}

/** Check every served cell's bytes against an in-process run (and
 *  count each request as one operation). Returns the reference
 *  results of every miss cell served, then of the hot set. */
std::vector<SimResults>
verify(const Plan &plan, const std::vector<ClientLog> &logs,
       const std::vector<std::uint64_t> &hotHashes, Report &report)
{
    // A miss request's cells share one workload stream, so they are
    // replayed from one materialized trace without checkpoints: a
    // different path from the server's checkpoint restore, at an
    // eighth of the generation cost of eight uncached runs.
    struct MissCell
    {
        std::uint64_t expected = 0;
        SimResults results;
    };
    std::vector<const std::vector<serve::CellSpec> *> missRequests;
    for (unsigned c = 0; c < kClients; ++c)
        for (const Served &served : logs[c].served)
            if (served.error.empty() && served.miss)
                missRequests.push_back(&plan.pools[c][served.index].cells);
    std::vector<MissCell> misses(missRequests.size() * kCellsPerRequest);
    std::vector<std::uint64_t> hotExpected(plan.hot.size());
    std::vector<SimResults> hotResults(plan.hot.size());
    parallelFor(
        plan.hot.size() + missRequests.size(),
        std::min(4u, defaultThreads()), [&](std::size_t i) {
            if (i < plan.hot.size()) {
                hotResults[i] = referenceRun(plan.hot[i]);
                hotExpected[i] = fnv1a(render(plan.hot[i], hotResults[i]));
                return;
            }
            std::size_t r = i - plan.hot.size();
            const std::vector<serve::CellSpec> &cells = *missRequests[r];
            for (std::size_t k = 0; k < cells.size(); ++k) {
                const serve::CellSpec &spec = cells[k];
                RunnerOptions options;
                options.instructions = spec.instructions;
                options.warmup = spec.warmup;
                options.threads = 1;
                options.materialize = true;
                options.checkpoints = false;
                MissCell &miss = misses[r * kCellsPerRequest + k];
                miss.results = runOne(spec92::profile(spec.benchmark),
                                      spec.machine, options, spec.seed);
                miss.expected = fnv1a(render(spec, miss.results));
            }
        });

    for (std::size_t i = 0; i < plan.hot.size(); ++i)
        if (hotHashes[i] != hotExpected[i])
            report.fail("preloaded " + plan.hot[i].benchmark
                        + " cell differs from the in-process bytes");

    std::vector<SimResults> results;
    std::size_t nextMiss = 0;
    for (unsigned c = 0; c < kClients; ++c)
        for (const Served &served : logs[c].served) {
            report.attempt();
            std::string where = "request " + std::to_string(served.index)
                                + " of client " + std::to_string(c);
            if (!served.error.empty()) {
                report.fail(where + ": " + served.error);
                continue;
            }
            const PoolRequest &request = plan.pools[c][served.index];
            const HitGroup &group = plan.groups[c][request.group];
            bool same = true;
            for (std::size_t k = 0; k < kCellsPerRequest; ++k) {
                std::uint64_t expected = hotExpected[group.hot[k]];
                if (request.miss) {
                    expected = misses[nextMiss].expected;
                    results.push_back(misses[nextMiss++].results);
                }
                same = same && served.hashes[k] == expected;
            }
            if (!same)
                report.fail(where
                            + " served bytes that differ from the "
                              "in-process writeSimResultsJson output");
        }
    results.insert(results.end(), hotResults.begin(), hotResults.end());
    return results;
}

/** Latencies of every answered request (@p kind -1), hits (0) or
 *  misses (1). */
std::vector<double>
latencies(const std::vector<ClientLog> &logs, int kind)
{
    std::vector<double> out;
    for (const ClientLog &log : logs)
        for (const Served &served : log.served)
            if (served.error.empty()
                && (kind < 0 || served.miss == (kind == 1)))
                out.push_back(served.latencyMs);
    return out;
}

/** serve.*_req_us / *_resp_us on the run's own messages; each decode
 *  must re-encode to the same bytes. */
void
probeWire(const Plan &plan, const std::vector<ClientLog> &logs,
          Report &report, SpanRecorder &spans)
{
    SpanRecorder::Scope root(spans, "bench.wire_probe");
    std::vector<serve::Request> requests;
    for (const PoolRequest &pooled : plan.pools[0]) {
        if (requests.size() == 2 * kWireSamples)
            break;
        serve::Request request;
        request.type = serve::RequestType::Sweep;
        request.cells = plan.cells(0, pooled);
        requests.push_back(std::move(request));
    }
    std::vector<serve::Response> responses;
    for (const ClientLog &log : logs) {
        responses.insert(responses.end(), log.hitResponses.begin(),
                         log.hitResponses.end());
        responses.insert(responses.end(), log.missResponses.begin(),
                         log.missResponses.end());
    }
    // Time each codec alone, then check the round trips.
    std::vector<std::string> requestBytes(requests.size()),
        responseBytes(responses.size());
    std::vector<serve::Request> decodedRequests(requests.size());
    std::vector<serve::Response> decodedResponses(responses.size());
    std::vector<char> decodedOk(requests.size() + responses.size(), 0);
    std::string error;
    auto timed = [&](const char *name, std::size_t count, auto body) {
        SpanRecorder::Scope span(spans, name, root.id());
        std::vector<double> times;
        for (std::size_t i = 0; i < count; ++i) {
            Clock::time_point begin = Clock::now();
            body(i);
            times.push_back(secondsSince(begin) * 1e6);
        }
        return median(times);
    };
    double encodeReq = timed("serve.encode_req", requests.size(),
                            [&](std::size_t i) {
                                requestBytes[i] =
                                    serve::encodeRequest(requests[i]);
                            });
    double decodeReq = timed(
        "serve.decode_req", requests.size(), [&](std::size_t i) {
            decodedOk[i] = serve::decodeRequest(requestBytes[i],
                                                decodedRequests[i], error);
        });
    double encodeResp = timed("serve.encode_resp", responses.size(),
                             [&](std::size_t i) {
                                 responseBytes[i] =
                                     serve::encodeResponse(responses[i]);
                             });
    double decodeResp = timed(
        "serve.decode_resp", responses.size(), [&](std::size_t i) {
            decodedOk[requests.size() + i] = serve::decodeResponse(
                responseBytes[i], decodedResponses[i], error);
        });
    for (std::size_t i = 0; i < requests.size(); ++i) {
        report.attempt();
        if (!decodedOk[i]
            || serve::encodeRequest(decodedRequests[i]) != requestBytes[i])
            report.fail("wire round trip changed a request");
    }
    for (std::size_t i = 0; i < responses.size(); ++i) {
        report.attempt();
        if (!decodedOk[requests.size() + i]
            || serve::encodeResponse(decodedResponses[i])
                   != responseBytes[i])
            report.fail("wire round trip changed a response");
    }
    report.metric("serve.encode_req_us", encodeReq, "us");
    report.metric("serve.decode_req_us", decodeReq, "us");
    report.metric("serve.encode_resp_us", encodeResp, "us");
    report.metric("serve.decode_resp_us", decodeResp, "us");
}

/** p50/p99 of the server's serve.cell_micros histogram. */
std::pair<double, double>
serverCellQuantiles(ServeServer &server)
{
    obs::JsonValue stats = obs::JsonValue::parse(server.statsJson());
    for (const obs::JsonValue &metric : stats.at("metrics").array())
        if (metric.at("name").string() == "serve.cell_micros")
            return {metric.at("p50").number(),
                    metric.at("p99").number()};
    return {0.0, 0.0};
}

} // namespace

void
runServeMix(const Args &args, Report &report)
{
    const Plan plan = makePlan(args.seed);
    setGridCacheByteBudget(kGridBudgetBytes);
    SpanRecorder spans(args.trace);

    // Set-up: server start plus hot-set preload, from cold caches.
    std::unique_ptr<ServeServer> server;
    std::vector<std::uint64_t> hotHashes;
    std::vector<double> setupSeconds;
    const int repeats = args.trace ? 1 : kSetupRepeats;
    CpuRotation rotation;
    auto confined = std::make_unique<CpuConfinement>(kCpus);
    for (int r = 0; r < repeats; ++r) {
        if (server)
            server->stop();
        server.reset();
        clearGridCaches();
        SpanRecorder::Scope span(spans, "bench.setup");
        Clock::time_point begin = Clock::now();
        server = startServer();
        hotHashes = preload(*server, plan, report);
        setupSeconds.push_back(secondsSince(begin));
    }

    std::vector<ClientLog> logs(kClients);
    std::vector<std::size_t> next(kClients, 0);
    double covered = 0.0, rootUs = 0.0;
    if (!args.trace) {
        PhaseLimit limit;
        limit.seconds = args.seconds / kPhases;
        double bestRate = 0.0;
        std::vector<double> bestLatencies;
        for (int p = 0; p < kPhases; ++p) {
            rotation.next();
            std::vector<ClientLog> phaseLogs(kClients);
            PhaseOutcome phase = runPhase(*server, plan, next, limit,
                                          nullptr, phaseLogs, covered,
                                          rootUs);
            std::size_t cells = 0;
            for (const ClientLog &log : phaseLogs)
                for (const Served &served : log.served)
                    if (served.error.empty()
                        && served.doneSeconds <= phase.firstStop)
                        cells += kCellsPerRequest;
            double rate = double(cells) / phase.firstStop;
            std::cerr << "perfbench: serve_mix: phase " << p << ": "
                      << rate << " cells/s\n";
            if (rate > bestRate) {
                bestRate = rate;
                bestLatencies = latencies(phaseLogs, -1);
            }
            for (unsigned c = 0; c < kClients; ++c) {
                logs[c].served.insert(logs[c].served.end(),
                                      phaseLogs[c].served.begin(),
                                      phaseLogs[c].served.end());
                logs[c].retries += phaseLogs[c].retries;
            }
        }
        double peakRss = peakRssMb();
        server->stop();
        confined.reset();
        std::cerr << "perfbench: serve_mix: "
                  << latencies(logs, -1).size() << " requests\n";
        verify(plan, logs, hotHashes, report);

        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("cells_per_s", bestRate, "cells/s");
        report.metric("p50_ms", quantile(bestLatencies, 0.50), "ms");
        report.metric("p90_ms", quantile(bestLatencies, 0.90), "ms");
        report.metric("p99_ms", quantile(bestLatencies, 0.99), "ms");
        report.metric("peak_rss_mb", peakRss, "MB");
        return;
    }

    // Traced run: fixed request counts, alternating untraced and
    // traced phases, so every count repeats exactly.
    serve::ResultStoreStats storeBefore = server->storeStats();
    serve::DispatchQueueStats queueBefore = server->queueStats();
    double untraced = 0.0, traced = 0.0;
    std::vector<ClientLog> untracedLogs(kClients);
    PhaseLimit limit;
    limit.requests = kTracedPhaseRequests;
    for (int pair = 0; pair < kTracedPairs; ++pair) {
        untraced += runPhase(*server, plan, next, limit, nullptr,
                             untracedLogs, covered, rootUs)
                        .seconds;
        traced += runPhase(*server, plan, next, limit, &spans, logs,
                           covered, rootUs)
                      .seconds;
    }
    serve::ResultStoreStats store = server->storeStats();
    serve::DispatchQueueStats queue = server->queueStats();
    auto [cellP50, cellP99] = serverCellQuantiles(*server);
    server->stop();
    confined.reset();
    reportGridCache(report);

    std::uint64_t retries = 0;
    for (unsigned c = 0; c < kClients; ++c) {
        retries += logs[c].retries + untracedLogs[c].retries;
        logs[c].served.insert(logs[c].served.end(),
                              untracedLogs[c].served.begin(),
                              untracedLogs[c].served.end());
    }
    std::vector<SimResults> results =
        verify(plan, logs, hotHashes, report);
    reportSimulatedCounts(report, results);
    reportBusCounts(report, {});

    std::uint64_t hits = store.hits - storeBefore.hits;
    std::uint64_t misses = store.misses - storeBefore.misses;
    report.metric("serve.hit_req_p50_ms", median(latencies(logs, 0)),
                  "ms");
    report.metric("serve.miss_req_p50_ms", median(latencies(logs, 1)),
                  "ms");
    report.metric("serve.store_hits", double(hits), "count");
    report.metric("serve.store_misses", double(misses), "count");
    report.metric("serve.store_evictions",
                  double(store.evictions - storeBefore.evictions),
                  "count");
    report.metric("serve.store_hit_ratio",
                  hits + misses ? double(hits) / double(hits + misses)
                                : 0.0,
                  "ratio");
    report.metric("serve.queue_pushed",
                  double(queue.pushed - queueBefore.pushed), "count");
    report.metric("serve.queue_rejected",
                  double(queue.rejected - queueBefore.rejected),
                  "count");
    report.metric("serve.queue_high_water", double(queue.highWater),
                  "count");
    report.metric("serve.server_cell_p50_us", cellP50, "us");
    report.metric("serve.server_cell_p99_us", cellP99, "us");
    report.metric("serve.retries", double(retries), "count");
    probeWire(plan, logs, report, spans);

    // Layer probes on hot cells and on client 0's first miss cells.
    ProbeInput probes;
    for (std::size_t i = 0; i < kCellsPerRequest; ++i) {
        const serve::CellSpec &hot = plan.hot[i];
        const serve::CellSpec &miss =
            plan.pools[0][kMissEvery * i + kMissEvery - 1].cells[i];
        for (const serve::CellSpec *spec : {&hot, &miss})
            probes.cells.push_back({spec92::profile(spec->benchmark),
                                    spec->machine, spec->seed,
                                    spec->instructions, spec->warmup});
    }
    probes.exports.assign(results.end() - long(plan.hot.size()),
                          results.end());
    probeLayers(probes, report, spans);
    reportTraceCost(report, traced, untraced, covered, rootUs);
    writeTraceFiles(args, spans);
}

} // namespace perfbench
