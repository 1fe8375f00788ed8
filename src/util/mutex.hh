/**
 * @file
 * A mutex that Clang's thread-safety analysis can see (DESIGN.md §10).
 *
 * libstdc++'s std::mutex carries no capability attribute, so a member
 * guarded by one cannot be checked. Mutex wraps a std::mutex and
 * MutexLock holds a std::unique_lock on it, so condition-variable
 * waits still work; both carry Clang's capability attributes. The
 * clang-tidy CI job builds with -Wthread-safety, which then rejects
 * a touch of a WBSIM_GUARDED_BY member without its mutex held and a
 * call of a WBSIM_REQUIRES function from a caller that does not hold
 * the mutex.
 *
 * The macros expand only under Clang; every other compiler sees
 * nothing, so they never change codegen or warnings there.
 */

#ifndef WBSIM_UTIL_MUTEX_HH
#define WBSIM_UTIL_MUTEX_HH

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define WBSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define WBSIM_THREAD_ANNOTATION(x)
#endif

/** Member is only read or written with mutex @p m held. */
#define WBSIM_GUARDED_BY(m) WBSIM_THREAD_ANNOTATION(guarded_by(m))

/** Callers must hold mutex @p m (the `*Locked()` helper idiom). */
#define WBSIM_REQUIRES(m) WBSIM_THREAD_ANNOTATION(requires_capability(m))

/** This mutex, when nested with @p m, is always taken first. Clang
 *  checks the order only under -Wthread-safety-beta; TSan's
 *  lock-order detector checks it on the paths that run. */
#define WBSIM_ACQUIRES_BEFORE(m) WBSIM_THREAD_ANNOTATION(acquired_before(m))

namespace wbsim
{

/** A std::mutex with a capability. Lock it through MutexLock. */
class WBSIM_THREAD_ANNOTATION(capability("mutex")) Mutex
{
  private:
    friend class MutexLock;
    std::mutex mutex_;
};

/** Holds a Mutex from construction to destruction. */
class WBSIM_THREAD_ANNOTATION(scoped_lockable) MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex)
        WBSIM_THREAD_ANNOTATION(acquire_capability(mutex))
        : lock_(mutex.mutex_)
    {
    }
    ~MutexLock() WBSIM_THREAD_ANNOTATION(release_capability()) {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Sleep on @p cv with the mutex released; it is held again on
     *  return. Wakeups may be spurious, so callers loop on their
     *  condition: the loop then reads guarded state where the
     *  analysis can see the lock, which a predicate lambda hides. */
    void wait(std::condition_variable &cv) { cv.wait(lock_); }

  private:
    std::unique_lock<std::mutex> lock_;
};

} // namespace wbsim

#endif // WBSIM_UTIL_MUTEX_HH
