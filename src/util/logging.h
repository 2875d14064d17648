/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() aborts on internal invariant
 * violations (a bug in this library), fatal() exits on unrecoverable user
 * error (bad configuration, invalid input), warn()/inform() report
 * conditions without stopping.
 */
#ifndef SP_UTIL_LOGGING_H
#define SP_UTIL_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace sp {

/** Verbosity levels for the global logger. */
enum class LogLevel {
    Quiet = 0,   ///< only fatal/panic messages
    Warn = 1,    ///< plus warnings
    Info = 2,    ///< plus informational messages
    Debug = 3,   ///< plus debug traces
};

/** Set the global log verbosity. Thread-safe (relaxed atomic). */
void setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/**
 * Microseconds since process start on the steady clock. Prefixes every
 * log record and stamps timed spans, so logs and metrics share one
 * time base.
 */
uint64_t monotonicMicros();

/**
 * Hook invoked (with the formatted message) after a panic is logged
 * and before the process aborts — the seam the observability layer's
 * flight recorder hangs off. nullptr disarms. The hook must not
 * panic; a recursive panic skips the hook and aborts directly.
 */
using PanicHook = void (*)(const char *message);
void setPanicHook(PanicHook hook);

namespace detail {
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...);
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...);
void logImpl(LogLevel level, const char *tag, const char *fmt, ...);
}  // namespace detail

/** Abort: an internal invariant was violated (library bug). */
#define SP_PANIC(...) \
    ::sp::detail::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Exit(1): the caller supplied an unusable configuration or input. */
#define SP_FATAL(...) \
    ::sp::detail::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Report a suspicious-but-survivable condition. */
#define SP_WARN(...) \
    ::sp::detail::logImpl(::sp::LogLevel::Warn, "warn", __VA_ARGS__)

/** Report normal operating status. */
#define SP_INFORM(...) \
    ::sp::detail::logImpl(::sp::LogLevel::Info, "info", __VA_ARGS__)

/** Developer trace output. */
#define SP_DEBUG(...) \
    ::sp::detail::logImpl(::sp::LogLevel::Debug, "debug", __VA_ARGS__)

/** Assert that holds in all build types; panics with location on failure. */
#define SP_ASSERT(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::sp::detail::panicImpl(__FILE__, __LINE__,                 \
                                    "assertion failed: %s", #cond);    \
        }                                                               \
    } while (0)

}  // namespace sp

#endif  // SP_UTIL_LOGGING_H
