/**
 * wbsim-lint fixture: seeded WL-LOCK-GUARD violations.
 *
 * Lines tagged `EXPECT: <RULE>` must produce exactly one diagnostic
 * of that rule at that line; the fixture driver fails on any
 * mismatch in either direction.
 */

#include <mutex>

#define GUARDED_BY(m) [[clang::annotate("wbsim::guarded_by:" #m)]]
#define REQUIRES(m) [[clang::annotate("wbsim::requires:" #m)]]

namespace fixture
{

struct Counter
{
    std::mutex mutex_;
    GUARDED_BY(mutex_) int value = 0;
    GUARDED_BY(mutex_) int peak = 0;

    /** Constructor touches are exempt: nothing else can see us. */
    Counter() { value = 0; }

    /** The *Locked() idiom: callers hold the lock for us. */
    REQUIRES(mutex_) void
    addLocked(int d)
    {
        value += d;
        if (value > peak)
            peak = value;
    }

    /** Properly locked touch and properly covered helper call. */
    void
    add(int d)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        addLocked(d);
    }

    /** Guarded member touched with no lock anywhere in scope. */
    int
    read() const
    {
        return value; // EXPECT: WL-LOCK-GUARD
    }

    /** Lock released by scope before the touch. */
    int
    racyPeak()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            value = 0;
        }
        return peak; // EXPECT: WL-LOCK-GUARD
    }

    /** REQUIRES callee entered without holding the capability. */
    void
    bump()
    {
        addLocked(1); // EXPECT: WL-LOCK-GUARD
    }
};

/** A virtual (non-mutex) capability: only the member touches are
 *  gated; REQUIRES call sites are not checkable and not checked. */
struct Driver
{
    GUARDED_BY(driver) int state = 0;

    REQUIRES(driver) void
    pokeLocked()
    {
        ++state;
    }

    void
    poke()
    {
        ++state; // EXPECT: WL-LOCK-GUARD
        pokeLocked(); // virtual capability: call site not checked
    }
};

/** Guarded members of a class template (util/lru_cache.hh's shard
 *  layout): checked in the template's pattern, though no
 *  instantiation exists. */
template <typename T> class Cache
{
    struct Shard
    {
        std::mutex mutex;
        GUARDED_BY(mutex) T item{};

        void
        put(T value)
        {
            std::lock_guard<std::mutex> lock(mutex);
            item = value;
        }

        T
        peek() const
        {
            return item; // EXPECT: WL-LOCK-GUARD
        }
    };

    Shard shard_;
};

} // namespace fixture
