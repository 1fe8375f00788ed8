/**
 * @file
 * A small fixed-size thread pool for running experiment grids.
 *
 * The harness runs hundreds of independent simulations per figure;
 * parallelFor() distributes them across hardware threads while
 * keeping results ordered and deterministic (each simulation owns
 * its state; no sharing).
 *
 * Thread-safety contract: iterations are claimed from one atomic
 * counter, each result slot is written by exactly one worker, and
 * the join at the end of parallelFor() publishes every write to the
 * caller. CI's `tsan` job runs this pool (and its users) under
 * ThreadSanitizer with no suppressions — keep it that way.
 */

#ifndef WBSIM_UTIL_THREAD_POOL_HH
#define WBSIM_UTIL_THREAD_POOL_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace wbsim
{

/**
 * Run @p body(i) for every i in [0, count) across @p threads
 * workers. Blocks until all iterations finish. With threads <= 1 the
 * loop runs inline (useful for debugging).
 *
 * If @p body throws, the first exception (in completion order) is
 * captured, remaining iterations are abandoned as workers notice,
 * and the exception is rethrown on the calling thread after all
 * workers have joined. Later exceptions are discarded.
 */
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &body);

/** Hardware concurrency clamped to [1, 64], honours WBSIM_THREADS. */
unsigned defaultThreads();

/** CPUs the calling thread may run on now (its affinity mask), at
 *  least 1; hardware concurrency when the mask cannot be read. */
unsigned usableCpus();

/**
 * A set of long-lived worker threads for services (wbsim-serve).
 * Unlike parallelFor's scoped fork/join, the workers here run one
 * long @p body(workerIndex) each — typically a pop-until-closed loop
 * over a queue — and live until join().
 *
 * Thread-safety contract: start() publishes @p body to the workers
 * via thread creation; join() publishes everything the workers wrote
 * back to the caller. The pool itself is not re-entrant: call
 * start() once, then join() once (the destructor joins as a
 * backstop). A body that lets an exception escape takes the process
 * down with a clear message instead of std::terminate's silence —
 * service loops are expected to catch and report their own errors.
 */
class WorkerPool
{
  public:
    WorkerPool() = default;
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Launch @p threads workers (at least 1) running @p body. */
    void start(unsigned threads,
               std::function<void(unsigned)> body);

    /** Wait for every worker's body to return. Idempotent. */
    void join();

    /** Workers launched by start() (0 before start). */
    std::size_t size() const { return workers_.size(); }

  private:
    std::vector<std::thread> workers_;
};

} // namespace wbsim

#endif // WBSIM_UTIL_THREAD_POOL_HH
