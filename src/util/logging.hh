/**
 * @file
 * gem5-flavoured status and error reporting.
 *
 * fatal() terminates because of a user error (bad configuration);
 * panic() terminates because of a simulator bug. Both print the
 * source location of the call. inform()/warn() report status without
 * stopping the simulation.
 */

#ifndef WBSIM_UTIL_LOGGING_HH
#define WBSIM_UTIL_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>


namespace wbsim
{

/** Verbosity levels for runtime logging. */
enum class LogLevel
{
    Quiet,  //!< only warnings and errors
    Normal, //!< informational messages too
    Debug,  //!< everything
};

/** Process-wide log level; defaults to Normal. */
LogLevel logLevel();

/** Set the process-wide log level. */
void setLogLevel(LogLevel level);

namespace detail
{

/* The diagnostic sinks allocate and stream freely. Reaching them
 * from a hot path is fine — they only execute when the simulation
 * is already dying or narrating. */

[[noreturn]] void
terminate(const char *kind, const char *file, int line,
          const std::string &message, int exit_code);

void report(const char *kind, const std::string &message);

/** Fold a variadic pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

} // namespace detail

/** Informational message, suppressed under LogLevel::Quiet. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Normal)
        detail::report("info", detail::concat(std::forward<Args>(args)...));
}

/** Debug message, shown only under LogLevel::Debug. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    if (logLevel() >= LogLevel::Debug)
        detail::report("debug", detail::concat(std::forward<Args>(args)...));
}

/** Warning about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::report("warn", detail::concat(std::forward<Args>(args)...));
}

/**
 * Abort due to a user error (invalid configuration or input).
 * Exits with status 1.
 */
#define wbsim_fatal(...)                                                    \
    ::wbsim::detail::terminate("fatal", __FILE__, __LINE__,                 \
                               ::wbsim::detail::concat(__VA_ARGS__), 1)

/**
 * Abort due to an internal inconsistency (a simulator bug).
 * Calls std::abort().
 */
#define wbsim_panic(...)                                                    \
    ::wbsim::detail::terminate("panic", __FILE__, __LINE__,                 \
                               ::wbsim::detail::concat(__VA_ARGS__), -1)

/** Panic unless a simulator invariant holds. */
#define wbsim_assert(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            wbsim_panic("assertion '" #cond "' failed. " __VA_ARGS__);      \
        }                                                                   \
    } while (false)

} // namespace wbsim

#endif // WBSIM_UTIL_LOGGING_HH
