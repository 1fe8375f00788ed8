#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "harness/experiment.hh"
#include "obs/export.hh"
#include "workloads/spec92.hh"

namespace wbsim::serve
{
namespace
{

/** Which worker this thread is; set once by workerLoop so job
 *  closures built on connection threads can find their shard. */
thread_local unsigned tlsWorkerIndex = 0;

std::string
socketError(const char *what)
{
    // strerror_r, not strerror: connection threads hit this
    // concurrently and strerror's shared buffer is not thread-safe
    // (clang-tidy concurrency-mt-unsafe).
    char buf[128];
    const char *text = "unknown error";
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
    text = ::strerror_r(errno, buf, sizeof buf);
#else
    if (::strerror_r(errno, buf, sizeof buf) == 0)
        text = buf;
#endif
    return std::string(what) + ": " + text;
}

} // namespace

ServeServer::ServeServer(ServeConfig config)
    : config_(std::move(config)),
      store_(config_.storeBudgetBytes, config_.storeShards),
      queue_(config_.queueCapacity, config_.discipline)
{
}

ServeServer::~ServeServer()
{
    stop();
}

void
ServeServer::registerWorkerMetrics(obs::MetricsRegistry &metrics)
{
    metrics.counter("serve.cells_simulated");
    metrics.counter("serve.sim_micros");
    // 64 buckets x ~1ms covers sub-ms cached rebuilds out to 64ms
    // cold cells; longer runs land in the overflow bucket.
    metrics.histogram("serve.cell_micros", 64, 1024);
}

bool
ServeServer::start(std::string &error)
{
    unsigned workers =
        config_.workers != 0 ? config_.workers : defaultThreads();

    if (!config_.unixPath.empty()) {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            error = socketError("socket");
            return false;
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.unixPath.size() >= sizeof addr.sun_path) {
            error = "unix socket path too long: " + config_.unixPath;
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
        std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(config_.unixPath.c_str());
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr)
            < 0) {
            error = socketError("bind");
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            error = socketError("socket");
            return false;
        }
        int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(config_.port);
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr)
            < 0) {
            error = socketError("bind");
            ::close(listenFd_);
            listenFd_ = -1;
            return false;
        }
        sockaddr_in bound{};
        socklen_t length = sizeof bound;
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &length)
            == 0)
            port_ = ntohs(bound.sin_port);
    }

    if (::listen(listenFd_, 128) < 0) {
        error = socketError("listen");
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    shards_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        auto shard = std::make_unique<WorkerShard>();
        {
            // No worker exists yet, but metrics is guarded state and
            // the registration writes it; take the shard lock so the
            // access is covered by the same discipline as every
            // other touch (WL-LOCK-GUARD).
            std::lock_guard<std::mutex> lock(shard->mutex);
            registerWorkerMetrics(shard->metrics);
        }
        shards_.push_back(std::move(shard));
    }
    passSpread_ = std::min(workers, usableCpus());
    workers_.start(workers,
                   [this](unsigned index) { workerLoop(index); });
    acceptThread_ = std::thread([this]() { acceptLoop(); });
    return true;
}

void
ServeServer::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down by stop()
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) {
                ::close(fd);
                return;
            }
            connectionFds_.insert(fd);
            ++activeConnections_;
        }
        connections_.fetch_add(1, std::memory_order_relaxed);
        std::thread([this, fd]() { connectionMain(fd); }).detach();
    }
}

void
ServeServer::connectionMain(int fd)
{
    handleConnection(fd);
    // Last touch of server state: after the notify below, this
    // detached thread references nothing of *this.
    std::lock_guard<std::mutex> lock(mutex_);
    connectionFds_.erase(fd);
    ::close(fd);
    --activeConnections_;
    connectionsDrained_.notify_all();
}

void
ServeServer::handleConnection(int fd)
{
    std::string payload;
    for (;;) {
        FrameResult got =
            readFrame(fd, payload, config_.maxFrameBytes);
        if (got == FrameResult::Eof || got == FrameResult::Error)
            return;
        if (got != FrameResult::Ok) {
            // BadMagic / TooLarge poison the stream: answer once,
            // then hang up (there is no way to find the next frame).
            Response response;
            response.type = ResponseType::Error;
            if (got == FrameResult::TooLarge) {
                std::ostringstream os;
                os << "frame exceeds " << config_.maxFrameBytes
                   << " bytes";
                response.error = os.str();
            } else {
                response.error = "bad frame magic (expected WBS1)";
            }
            requestErrors_.fetch_add(1, std::memory_order_relaxed);
            writeFrame(fd, encodeResponse(response));
            return;
        }
        Request request;
        std::string error;
        if (!decodeRequest(payload, request, error)) {
            requestErrors_.fetch_add(1, std::memory_order_relaxed);
            Response response;
            response.type = ResponseType::Error;
            response.error = error;
            if (!writeFrame(fd, encodeResponse(response)))
                return;
            continue;
        }
        if (!writeFrame(fd, handleRequest(request)))
            return;
        if (request.type == RequestType::Shutdown)
            return; // answered Bye
    }
}

std::string
ServeServer::handleRequest(const Request &request)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    switch (request.type) {
    case RequestType::Ping:
        response.type = ResponseType::Pong;
        return encodeResponse(response);
    case RequestType::Stats:
        response.type = ResponseType::Stats;
        response.statsJson = statsJson();
        return encodeResponse(response);
    case RequestType::Shutdown:
        requestShutdown();
        response.type = ResponseType::Bye;
        return encodeResponse(response);
    case RequestType::Sweep:
        return handleSweep(request);
    }
    response.type = ResponseType::Error;
    response.error = "unhandled request type";
    return encodeResponse(response);
}

std::string
ServeServer::handleSweep(const Request &request)
{
    const std::vector<CellSpec> &cells = request.cells;
    auto reject = [&](const std::string &why) {
        requestErrors_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.type = ResponseType::Error;
        response.error = why;
        return encodeResponse(response);
    };

    if (cells.size() > config_.maxCellsPerRequest) {
        std::ostringstream os;
        os << "sweep of " << cells.size()
           << " cells exceeds the per-request cap of "
           << config_.maxCellsPerRequest;
        return reject(os.str());
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &spec = cells[i];
        auto rejectCell = [&](const std::string &why) {
            return reject("cells[" + std::to_string(i) + "]: " + why);
        };
        if (!spec92::isBenchmark(spec.benchmark))
            return rejectCell("unknown benchmark \"" + spec.benchmark
                              + "\"");
        if (spec.instructions == 0)
            return rejectCell("instructions must be positive");
        if (spec.instructions > config_.cellInstructionCap
            || spec.warmup
                   > config_.cellInstructionCap - spec.instructions)
            return rejectCell("instructions + warmup exceed the "
                              "per-cell cap");
        if (std::string error = spec.machine.validationError();
            !error.empty())
            return rejectCell(error);
    }

    // Admission: answer store hits directly; simulate each distinct
    // missing key once, whatever number of cells name it; group the
    // misses that share a trace, split each group into passes, one
    // job each, and admit the jobs all-or-nothing, charged their
    // cells.
    struct Latch
    {
        std::mutex mutex;
        std::condition_variable done;
        std::size_t remaining = 0;
    };
    Latch latch;
    std::vector<ResultStore::TokenPtr> tokens(cells.size());
    std::vector<char> fromStore(cells.size(), 0);
    std::vector<MissGroup> groups;
    std::map<std::tuple<std::string_view, std::uint64_t, Count, Count>,
             std::size_t>
        groupOf;
    // Each distinct miss's cell index, and every later cell naming
    // the same key with the index of the cell whose token it copies.
    std::unordered_map<CellKey, std::size_t, CellKeyHash> firstMiss;
    std::vector<std::pair<std::size_t, std::size_t>> repeats;
    std::size_t misses = 0;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellKey key = keyOf(cells[i]);
        if (auto seen = firstMiss.find(key); seen != firstMiss.end()) {
            repeats.emplace_back(i, seen->second);
            continue;
        }
        if (ResultStore::TokenPtr cached = store_.find(key)) {
            tokens[i] = std::move(cached);
            fromStore[i] = 1;
            ++hits;
            continue;
        }
        firstMiss.emplace(key, i);
        const CellSpec &spec = cells[i];
        auto [it, fresh] = groupOf.try_emplace(
            {spec.benchmark, spec.seed, spec.instructions, spec.warmup},
            groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back({i, std::move(key)});
        ++misses;
    }
    cellsFromStore_.fetch_add(hits, std::memory_order_relaxed);

    if (misses != 0) {
        // A miss batch larger than the whole queue can never be
        // admitted; RETRY_AFTER would send the client into an
        // infinite retry loop, so fail the request outright.
        if (misses > config_.queueCapacity) {
            std::ostringstream os;
            os << misses
               << " uncached cells exceed the admission queue "
                  "capacity of "
               << config_.queueCapacity
               << "; split the sweep into smaller requests";
            return reject(os.str());
        }
        // Each group runs as one pass per worker that can run at
        // once, so a lone request still spreads over idle workers,
        // and as more passes where one would hold over
        // kMaxCellsPerPass machines. Pass sizes differ by at most
        // one. The passes are queued round-robin over the groups
        // (every group's first pass, then every second pass, ...):
        // workers that take consecutive jobs then start on different
        // traces and build them side by side, instead of all but one
        // waiting for the same trace build.
        std::vector<std::pair<std::size_t, MissGroup>> passes;
        for (MissGroup &group : groups) {
            const std::size_t size = group.size();
            const std::size_t count = std::max(
                std::min<std::size_t>(passSpread_, size),
                (size + kMaxCellsPerPass - 1) / kMaxCellsPerPass);
            for (std::size_t p = 0; p < count; ++p)
                passes.emplace_back(
                    p, MissGroup(std::make_move_iterator(
                                     group.begin() + size * p / count),
                                 std::make_move_iterator(
                                     group.begin()
                                     + size * (p + 1) / count)));
        }
        std::stable_sort(passes.begin(), passes.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<DispatchJob> jobs;
        for (auto &[round, pass] : passes) {
            DispatchJob job;
            job.priority = request.priority;
            job.cells = pass.size();
            job.run = [this, &latch, &tokens, &cells,
                       pass = std::move(pass)]() {
                if (config_.workerGate)
                    config_.workerGate();
                runMissPass(cells, pass, tokens, tlsWorkerIndex);
                std::lock_guard<std::mutex> lock(latch.mutex);
                latch.remaining -= pass.size();
                if (latch.remaining == 0)
                    latch.done.notify_all();
            };
            jobs.push_back(std::move(job));
        }
        latch.remaining = misses;
        if (!queue_.tryPushBatch(std::move(jobs))) {
            retryAfters_.fetch_add(1, std::memory_order_relaxed);
            Response response;
            response.type = ResponseType::RetryAfter;
            response.retryAfterMs = config_.retryAfterMs;
            return encodeResponse(response);
        }
        std::unique_lock<std::mutex> lock(latch.mutex);
        latch.done.wait(lock,
                        [&]() { return latch.remaining == 0; });
    }
    for (const auto &[cell, first] : repeats)
        tokens[cell] = tokens[first];

    sweeps_.fetch_add(1, std::memory_order_relaxed);
    cellsServed_.fetch_add(cells.size(), std::memory_order_relaxed);

    std::vector<ResultCellView> views(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        views[i] = {cells[i].benchmark, fromStore[i] != 0, *tokens[i]};
    return encodeResults(views);
}

std::string
ServeServer::resultToken(const CellSpec &spec, std::uint64_t fingerprint,
                         const SimResults &results)
{
    // Every input is a CellKey field or a pure function of one:
    // describe() reads only machine fields that stateFingerprint()
    // hashes (DESIGN.md §13).
    obs::Provenance provenance;
    provenance.machineFingerprint = fingerprint;
    provenance.machine = spec.machine.describe();
    provenance.seed = spec.seed;
    provenance.instructions = spec.instructions;
    provenance.warmup = spec.warmup;
    std::string document;
    obs::writeSimResultsJson(document, results, provenance);
    return encodeResultToken(document);
}

void
ServeServer::workerLoop(unsigned index)
{
    tlsWorkerIndex = index;
    DispatchJob job;
    while (queue_.pop(job))
        job.run();
}

void
ServeServer::runMissPass(const std::vector<CellSpec> &cells,
                         const MissGroup &pass,
                         std::vector<ResultStore::TokenPtr> &tokens,
                         unsigned worker)
{
    auto begin = std::chrono::steady_clock::now();
    const CellSpec &first = cells[pass.front().index];
    RunnerOptions options;
    options.instructions = first.instructions;
    options.warmup = first.warmup;
    options.threads = 1;
    options.seed = first.seed;
    // A served miss is stored, so its checkpoint would never be
    // restored again: a warm start costs a snapshot and gains none.
    options.checkpoints = false;
    std::vector<MachineConfig> machines;
    machines.reserve(pass.size());
    for (const Miss &miss : pass)
        machines.push_back(cells[miss.index].machine);
    std::vector<SimResults> results = runCells(
        spec92::profile(first.benchmark), machines, options, first.seed);
    auto micros = std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());

    // Render and escape once, here; every later hit on a key appends
    // these bytes.
    for (std::size_t k = 0; k < pass.size(); ++k) {
        const Miss &miss = pass[k];
        auto token = std::make_shared<const std::string>(
            resultToken(cells[miss.index], miss.key.machineFingerprint,
                        results[k]));
        store_.insert(miss.key, token);
        tokens[miss.index] = std::move(token);
    }

    WorkerShard &shard = *shards_[worker];
    std::lock_guard<std::mutex> lock(shard.mutex);
    obs::MetricsRegistry &metrics = shard.metrics;
    metrics.add(metrics.counter("serve.cells_simulated"), pass.size());
    metrics.add(metrics.counter("serve.sim_micros"), micros);
    // Each cell is charged an equal share of its pass.
    obs::MetricId cellMicros =
        metrics.histogram("serve.cell_micros", 64, 1024);
    for (std::size_t k = 0; k < pass.size(); ++k)
        metrics.sample(cellMicros, micros / pass.size());
}

CellKey
ServeServer::keyOf(const CellSpec &spec)
{
    CellKey key;
    key.benchmark = spec.benchmark;
    key.machineFingerprint = spec.machine.stateFingerprint();
    key.seed = spec.seed;
    key.instructions = spec.instructions;
    key.warmup = spec.warmup;
    return key;
}

std::string
ServeServer::statsJson()
{
    obs::MetricsRegistry merged;
    registerWorkerMetrics(merged);
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        merged.merge(shard->metrics);
    }
    ResultStoreStats store = store_.stats();
    DispatchQueueStats queue = queue_.stats();
    GridCacheStats grid = gridCacheStats();

    std::string out;
    obs::JsonWriter json(out, 0);
    json.beginObject();
    json.field("schema", "wbsim-serve-stats-v1");
    json.key("server").beginObject();
    json.field("connections",
               connections_.load(std::memory_order_relaxed));
    json.field("requests", requests_.load(std::memory_order_relaxed));
    json.field("sweeps", sweeps_.load(std::memory_order_relaxed));
    json.field("cells_served",
               cellsServed_.load(std::memory_order_relaxed));
    json.field("cells_from_store",
               cellsFromStore_.load(std::memory_order_relaxed));
    json.field("retry_afters",
               retryAfters_.load(std::memory_order_relaxed));
    json.field("request_errors",
               requestErrors_.load(std::memory_order_relaxed));
    json.field("workers", std::uint64_t(shards_.size()));
    json.field("discipline",
               dispatchDisciplineName(config_.discipline));
    json.endObject();
    json.key("store").beginObject();
    json.field("hits", store.hits);
    json.field("misses", store.misses);
    json.field("inserts", store.inserts);
    json.field("evictions", store.evictions);
    json.field("bytes", store.bytes);
    json.field("entries", store.entries);
    json.field("budget_bytes", store.budgetBytes);
    json.endObject();
    json.key("queue").beginObject();
    json.field("pushed", queue.pushed);
    json.field("rejected", queue.rejected);
    json.field("popped", queue.popped);
    json.field("high_water", queue.highWater);
    json.field("depth", queue.depth);
    json.field("capacity", std::uint64_t(queue_.capacity()));
    json.endObject();
    json.key("grid_cache").beginObject();
    json.field("trace_builds", std::uint64_t(grid.traceBuilds));
    json.field("trace_hits", std::uint64_t(grid.traceHits));
    json.field("trace_streams", std::uint64_t(grid.traceStreams));
    json.field("checkpoint_builds",
               std::uint64_t(grid.checkpointBuilds));
    json.field("checkpoint_hits",
               std::uint64_t(grid.checkpointHits));
    json.field("trace_evictions",
               std::uint64_t(grid.traceEvictions));
    json.field("checkpoint_evictions",
               std::uint64_t(grid.checkpointEvictions));
    json.field("cached_bytes", std::uint64_t(grid.cachedBytes));
    json.field("budget_bytes", std::uint64_t(grid.budgetBytes));
    json.endObject();
    obs::writeMetricsArray(json, merged);
    json.endObject();
    out += '\n';
    return out;
}

void
ServeServer::requestShutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdownAsked_ = true;
    }
    shutdownRequested_.notify_all();
}

void
ServeServer::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lock(mutex_);
    shutdownRequested_.wait(
        lock, [&]() { return shutdownAsked_ || stopping_; });
}

void
ServeServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    shutdownRequested_.notify_all();

    // 1. Stop accepting: shutting the listener down unblocks
    //    accept() with an error.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // 2. Fail new admissions and drain queued cells: pending sweeps
    //    resolve, so no connection thread stays parked on a latch.
    queue_.close();
    workers_.join();

    // 3. Unblock connections waiting in readFrame and wait for the
    //    last one to bow out.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int fd : connectionFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        connectionsDrained_.wait(
            lock, [&]() { return activeConnections_ == 0; });
    }

    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
}

} // namespace wbsim::serve
