/**
 * @file
 * The wbsim-serve daemon core: a sharded, backpressured sweep
 * service over the grid cache.
 *
 * Architecture (DESIGN.md §13):
 *
 *   listener ──► connection threads ──► admission ──► DispatchQueue
 *                      │                   │               │
 *                      │              ResultStore      WorkerPool
 *                      │             (hit bypasses    (runCells per
 *                      ▼               the queue)      miss pass)
 *                 one response
 *                 frame per request
 *
 * A connection thread decodes one request frame at a time, answers
 * store hits immediately, keeps one miss per distinct cell key (a
 * repeat of a key gets that miss's token), groups the misses that
 * share a trace (benchmark, seed, instructions, warmup), splits each
 * group into one pass per worker that can run at once (more if a
 * pass would exceed kMaxCellsPerPass cells), and enqueues one job per
 * pass as one all-or-nothing batch, charged in cells. If the bounded
 * queue cannot take the batch the client gets RETRY_AFTER with a
 * backoff hint — the daemon never queues unboundedly and never drops
 * a request on the floor silently. A worker runs a pass's cells in one
 * runCells pass (warm checkpoints are not built, since a stored cell
 * is never simulated again). Its trace streams from the generator on
 * the trace key's first use and comes from the grid cache from its
 * second use on, so a trace that only one request asks for is never
 * encoded or cached. The worker then renders each cell's wire token
 * once and publishes it into the ResultStore; a Results frame is the
 * cells' stored tokens appended in order.
 *
 * Thread-safety contract: connection bookkeeping sits behind
 * mutex_; cross-thread sweep completion uses a per-request latch;
 * per-worker metrics shards are guarded by per-shard mutexes and
 * merged on demand. stop() must not be called from a connection
 * thread (it joins them); daemon code waits on
 * waitForShutdownRequest() and calls stop() from the main thread.
 * CI runs the loopback tests under ThreadSanitizer with no
 * suppressions.
 */

#ifndef WBSIM_SERVE_SERVER_HH
#define WBSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "serve/dispatch_queue.hh"
#include "serve/result_store.hh"
#include "serve/wire.hh"
#include "sim/results.hh"
#include "util/lint.hh"
#include "util/thread_pool.hh"

namespace wbsim::serve
{

/** Everything a ServeServer needs to know at construction. */
struct ServeConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (tests read
     *  it back via port()). Ignored when unixPath is set. */
    std::uint16_t port = 0;
    /** Unix-domain socket path; empty = TCP. */
    std::string unixPath;
    /** Simulation workers; 0 = defaultThreads(). */
    unsigned workers = 0;
    /** Admission queue capacity, in cells. */
    std::size_t queueCapacity = 1024;
    DispatchDiscipline discipline = DispatchDiscipline::Fcfs;
    /** ResultStore byte budget (0 = unbounded) and shard count. */
    std::size_t storeBudgetBytes = 256u << 20;
    std::size_t storeShards = 16;
    /** Backoff hint handed out with RETRY_AFTER. */
    std::uint32_t retryAfterMs = 50;
    /** Per-frame payload cap. */
    std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
    /** Cells one sweep request may carry. */
    std::size_t maxCellsPerRequest = 4096;
    /** Upper bound on instructions + warmup per cell; a sweep
     *  service must not let one client buy an unbounded simulation. */
    Count cellInstructionCap = 64'000'000;
    /** Test seam, empty (never called) by default. When set, a
     *  worker calls it on its own thread after popping a job and
     *  before simulating its cells; it may block. Overload tests
     *  hold the single worker here so the admission queue fills on
     *  purpose rather than by racing the simulator. */
    std::function<void()> workerGate;
};

/** The daemon: listener, connection threads, workers, result store. */
class ServeServer
{
  public:
    /** Most cells one worker job simulates. A runCells pass keeps
     *  every machine it runs alive to the end and switches between
     *  them every batch, so this bounds a worker's memory whatever
     *  the size of a request, and keeps the pass's machine state
     *  small enough that lockstep does not thrash the host cache
     *  (DESIGN.md §13). */
    static constexpr std::size_t kMaxCellsPerPass = 8;

    explicit ServeServer(ServeConfig config);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Bind, listen, launch workers and the accept thread. False
     *  (with @p error) when the socket cannot be set up. */
    bool start(std::string &error);

    /** The bound TCP port (after start(); 0 in Unix-socket mode). */
    std::uint16_t port() const { return port_; }

    const ServeConfig &config() const { return config_; }

    /** Block until a client sends a shutdown request, another thread
     *  calls requestShutdown(), or stop() runs. */
    void waitForShutdownRequest();

    /** Unblock waitForShutdownRequest() without tearing anything
     *  down (the daemon's signal path and tests use this). */
    void requestShutdown();

    /** Drain and tear everything down: stop accepting, fail new
     *  admissions, let workers finish queued cells, unblock and join
     *  every connection. Idempotent. Must not be called from a
     *  connection thread. */
    void stop();

    /** The wbsim-serve-stats-v1 document (also served on a stats
     *  request). */
    std::string statsJson();

    /** Direct counter access for in-process harnesses. */
    ResultStoreStats storeStats() const { return store_.stats(); }
    DispatchQueueStats queueStats() const { return queue_.stats(); }

  private:
    /** Per-worker metrics shard (own lock so a stats request can
     *  merge while workers publish). */
    struct WorkerShard
    {
        std::mutex mutex;
        WBSIM_GUARDED_BY(mutex) obs::MetricsRegistry metrics;
    };

    void acceptLoop();
    void connectionMain(int fd);
    void handleConnection(int fd);
    /** The encoded response payload for @p request. */
    std::string handleRequest(const Request &request);
    /** The response bytes for a sweep must be a pure function of the
     *  request (WL-DETERMINISM); latency stats are the one exempted
     *  side channel (see runMissPass). */
    WBSIM_DETERMINISTIC std::string handleSweep(const Request &request);
    void workerLoop(unsigned index);

    /** One uncached cell of a sweep: its index in the request and
     *  its store key. */
    struct Miss
    {
        std::size_t index = 0;
        CellKey key;
    };
    /** Misses of one request that share a trace key (benchmark,
     *  seed, instructions, warmup): a whole group, or one pass of it
     *  (one worker job). */
    using MissGroup = std::vector<Miss>;

    /** Simulate @p pass's cells of @p cells in one runCells pass on
     *  worker @p worker, then render each cell's token, insert it in
     *  the store and put it in @p tokens at the cell's index.
     *  WBSIM_NONDET_OK: the steady_clock reads here time the worker
     *  for the latency histograms only — the SimResults bytes come
     *  entirely from runCells(), which stays inside the checked
     *  deterministic closure (the exemption covers this body, not
     *  its callees). */
    WBSIM_NONDET_OK void
    runMissPass(const std::vector<CellSpec> &cells,
                const MissGroup &pass,
                std::vector<ResultStore::TokenPtr> &tokens,
                unsigned worker);
    /** The result_json token of @p results with @p spec's
     *  provenance (@p fingerprint is its machine's). A function of
     *  the cell's CellKey alone. */
    WBSIM_DETERMINISTIC static std::string
    resultToken(const CellSpec &spec, std::uint64_t fingerprint,
                const SimResults &results);
    /** The store key of @p spec. */
    static CellKey keyOf(const CellSpec &spec);
    /** Register the per-worker metrics (same order everywhere so
     *  shards merge). */
    static void registerWorkerMetrics(obs::MetricsRegistry &metrics);

    ServeConfig config_;
    ResultStore store_;
    DispatchQueue queue_;
    WorkerPool workers_;
    /** Passes a miss group is split over: the workers that can run
     *  at once, i.e. at most the CPUs the server could use at
     *  start(). More passes than that run no faster; each costs
     *  another decode of the trace and more switching between
     *  workers. */
    unsigned passSpread_ = 1;
    std::vector<std::unique_ptr<WorkerShard>> shards_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptThread_;

    /** Server lock, declared before the worker shards' metric locks
     *  in the hierarchy. No current path nests the two (statsJson
     *  merges shards lock-by-lock with mutex_ released), but any
     *  future nesting must keep the server lock outermost — workers
     *  publish under a shard lock from inside queue closures and
     *  must never be able to wait on connection state. */
    WBSIM_ACQUIRES_BEFORE(WorkerShard::mutex) std::mutex mutex_;
    std::condition_variable connectionsDrained_;
    std::condition_variable shutdownRequested_;
    WBSIM_GUARDED_BY(mutex_) std::set<int> connectionFds_;
    WBSIM_GUARDED_BY(mutex_) std::size_t activeConnections_ = 0;
    WBSIM_GUARDED_BY(mutex_) bool stopping_ = false;
    WBSIM_GUARDED_BY(mutex_) bool shutdownAsked_ = false;

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> sweeps_{0};
    std::atomic<std::uint64_t> cellsServed_{0};
    std::atomic<std::uint64_t> cellsFromStore_{0};
    std::atomic<std::uint64_t> retryAfters_{0};
    std::atomic<std::uint64_t> requestErrors_{0};
};

} // namespace wbsim::serve

#endif // WBSIM_SERVE_SERVER_HH
