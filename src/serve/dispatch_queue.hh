/**
 * @file
 * The admission queue between connection threads and the worker
 * pool: bounded, MPMC, with a pluggable dispatch discipline.
 *
 * Boundedness is the backpressure mechanism: when a sweep's cells do
 * not all fit (admission is all-or-nothing per request, so a request
 * is never half-admitted), the server answers RETRY_AFTER instead of
 * queueing unboundedly — graceful degradation under overload, per
 * the paper's own moral that a full buffer must stall the producer,
 * not lose writes.
 *
 * Thread-safety contract: all queue state lives behind one mutex
 * with two condition variables (notEmpty for workers; close() wakes
 * everyone). Verified race-free by CI's `tsan` job.
 */

#ifndef WBSIM_SERVE_DISPATCH_QUEUE_HH
#define WBSIM_SERVE_DISPATCH_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "util/mutex.hh"

namespace wbsim::serve
{

/** How the queue picks the next job for a free worker. */
enum class DispatchDiscipline : std::uint8_t
{
    /** Strict arrival order — predictable, starvation-free. */
    Fcfs,
    /** Higher request priority first; FIFO within a priority (the
     *  tie-break is the admission sequence number, so equal-priority
     *  work cannot starve). */
    Priority,
};

const char *dispatchDisciplineName(DispatchDiscipline discipline);
/** Inverse of dispatchDisciplineName(); fatal() on unknown names. */
DispatchDiscipline parseDispatchDiscipline(std::string_view name);
/** Non-fatal parse for CLI/wire input. */
bool tryParseDispatchDiscipline(std::string_view name,
                                DispatchDiscipline &out);

/** One unit of worker work: simulate some cells and publish them. */
struct DispatchJob
{
    std::uint32_t priority = 0;
    /** Cells the job simulates: what it is charged against the
     *  queue's capacity, which is counted in cells. */
    std::size_t cells = 1;
    std::function<void()> run;
};

/** Counters for one DispatchQueue, in cells (DispatchJob::cells). */
struct DispatchQueueStats
{
    std::uint64_t pushed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t popped = 0;
    std::uint64_t highWater = 0;
    std::uint64_t depth = 0;
};

/** A bounded MPMC job queue with FCFS or priority dispatch. */
class DispatchQueue
{
  public:
    /** @param capacity max queued cells (>= 1). */
    DispatchQueue(std::size_t capacity,
                  DispatchDiscipline discipline);

    /** Admit every job of @p jobs, or none of them (false when the
     *  batch's cells do not fit or the queue is closed). Never
     *  blocks. */
    bool tryPushBatch(std::vector<DispatchJob> jobs);

    /** Single-job convenience over tryPushBatch. */
    bool tryPush(DispatchJob job);

    /** Block until a job is available (true) or the queue is closed
     *  and drained (false). Hot: the serve worker loop's entire
     *  per-job overhead is this call — it must not allocate, only
     *  move the admitted closure out (alloc_free_test). */
    bool pop(DispatchJob &out);

    /** Wake all waiting workers; pops drain what is queued, pushes
     *  fail from now on. Idempotent. */
    void close();

    DispatchQueueStats stats() const;
    DispatchDiscipline discipline() const { return discipline_; }
    std::size_t capacity() const { return capacity_; }

  private:
    struct Entry
    {
        std::uint32_t priority = 0;
        /** Admission order; breaks priority ties FIFO. */
        std::uint64_t seq = 0;
        std::size_t cells = 1;
        std::function<void()> run;
    };

    /** Pick and remove the next entry per the discipline. Hot: this
     *  is the scheduling decision made once per job. */
    Entry takeLocked() WBSIM_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::condition_variable notEmpty_;
    std::deque<Entry> entries_ WBSIM_GUARDED_BY(mutex_);
    /** Cells of every queued entry. */
    std::size_t cells_ WBSIM_GUARDED_BY(mutex_) = 0;
    std::size_t capacity_;
    DispatchDiscipline discipline_;
    bool closed_ WBSIM_GUARDED_BY(mutex_) = false;
    std::uint64_t nextSeq_ WBSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t pushed_ WBSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t rejected_ WBSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t popped_ WBSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t highWater_ WBSIM_GUARDED_BY(mutex_) = 0;
};

} // namespace wbsim::serve

#endif // WBSIM_SERVE_DISPATCH_QUEUE_HH
