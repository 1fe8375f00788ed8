#include "util/thread_pool.hh"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <mutex>

#include "util/logging.hh"
#include "util/options.hh"

namespace wbsim
{

void
parallelFor(std::size_t count, unsigned threads,
            const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (threads <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    threads = std::min<std::size_t>(threads, count);
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&]() {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                try {
                    body(i);
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lock(error_mutex);
                        if (!error)
                            error = std::current_exception();
                    }
                    // Stop handing out iterations; peers drain out.
                    next.store(count);
                    return;
                }
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    if (error)
        std::rethrow_exception(error);
}

WorkerPool::~WorkerPool()
{
    join();
}

void
WorkerPool::start(unsigned threads, std::function<void(unsigned)> body)
{
    wbsim_assert(workers_.empty(), "WorkerPool started twice");
    wbsim_assert(body, "WorkerPool needs a body");
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers_.emplace_back([body, t]() {
            try {
                body(t);
            } catch (const std::exception &e) {
                wbsim_fatal("worker ", t,
                            " died on an unhandled exception: ",
                            e.what());
            } catch (...) {
                wbsim_fatal("worker ", t,
                            " died on an unhandled exception");
            }
        });
    }
}

void
WorkerPool::join()
{
    for (auto &worker : workers_)
        if (worker.joinable())
            worker.join();
    workers_.clear();
}

unsigned
defaultThreads()
{
    auto env = envUint("WBSIM_THREADS", 0);
    if (env > 0)
        return static_cast<unsigned>(std::min<std::uint64_t>(env, 64));
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    return std::min(hw, 64u);
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(unsigned(CPU_COUNT(&set)), 1u);
    return std::max(std::thread::hardware_concurrency(), 1u);
}

} // namespace wbsim
