#include "serve/dispatch_queue.hh"

#include <algorithm>
#include <utility>

#include "util/enum_names.hh"

namespace wbsim::serve
{
namespace
{

constexpr EnumName<DispatchDiscipline> kDisciplineNames[] = {
    {DispatchDiscipline::Fcfs, "fcfs"},
    {DispatchDiscipline::Priority, "priority"},
};
static_assert(namesEvery(kDisciplineNames, DispatchDiscipline::Priority));

} // namespace

const char *
dispatchDisciplineName(DispatchDiscipline discipline)
{
    return nameOf(kDisciplineNames, discipline);
}

bool
tryParseDispatchDiscipline(std::string_view name,
                           DispatchDiscipline &out)
{
    return tryParseName(kDisciplineNames, name, out);
}

DispatchDiscipline
parseDispatchDiscipline(std::string_view name)
{
    return parseName(kDisciplineNames, name, "dispatch discipline");
}

DispatchQueue::DispatchQueue(std::size_t capacity,
                             DispatchDiscipline discipline)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      discipline_(discipline)
{
}

bool
DispatchQueue::tryPushBatch(std::vector<DispatchJob> jobs)
{
    if (jobs.empty())
        return true;
    std::size_t cells = 0;
    for (const DispatchJob &job : jobs)
        cells += job.cells;
    {
        MutexLock lock(mutex_);
        if (closed_ || cells_ + cells > capacity_) {
            ++rejected_;
            return false;
        }
        for (DispatchJob &job : jobs) {
            Entry entry;
            entry.priority = job.priority;
            entry.seq = nextSeq_++;
            entry.cells = job.cells;
            entry.run = std::move(job.run);
            entries_.push_back(std::move(entry));
        }
        cells_ += cells;
        pushed_ += cells;
        highWater_ = std::max<std::uint64_t>(highWater_, cells_);
    }
    // Wake one worker per admitted job; any worker can run any job.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        notEmpty_.notify_one();
    return true;
}

bool
DispatchQueue::tryPush(DispatchJob job)
{
    std::vector<DispatchJob> batch;
    batch.push_back(std::move(job));
    return tryPushBatch(std::move(batch));
}

bool
DispatchQueue::pop(DispatchJob &out)
{
    MutexLock lock(mutex_);
    while (!closed_ && entries_.empty())
        lock.wait(notEmpty_);
    if (entries_.empty())
        return false; // closed and drained
    Entry entry = takeLocked();
    cells_ -= entry.cells;
    popped_ += entry.cells;
    out.priority = entry.priority;
    out.cells = entry.cells;
    out.run = std::move(entry.run);
    return true;
}

DispatchQueue::Entry
DispatchQueue::takeLocked()
{
    // FCFS pops the head; priority scans for the best (priority
    // desc, seq asc). The queue is admission-bounded (typically a
    // few thousand entries), so a linear scan beats maintaining a
    // heap once push/pop bookkeeping is counted, and it keeps the
    // structure a plain deque for both disciplines.
    auto best = entries_.begin();
    if (discipline_ == DispatchDiscipline::Priority) {
        for (auto it = std::next(best); it != entries_.end(); ++it) {
            if (it->priority > best->priority
                || (it->priority == best->priority
                    && it->seq < best->seq))
                best = it;
        }
    }
    Entry entry = std::move(*best);
    entries_.erase(best);
    return entry;
}

void
DispatchQueue::close()
{
    {
        MutexLock lock(mutex_);
        closed_ = true;
    }
    notEmpty_.notify_all();
}

DispatchQueueStats
DispatchQueue::stats() const
{
    MutexLock lock(mutex_);
    DispatchQueueStats out;
    out.pushed = pushed_;
    out.rejected = rejected_;
    out.popped = popped_;
    out.highWater = highWater_;
    out.depth = cells_;
    return out;
}

} // namespace wbsim::serve
