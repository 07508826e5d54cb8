/**
 * @file
 * Error and status reporting in the gem5 style: panic() for internal
 * invariant violations, fatal() for user errors, warn()/inform() for
 * status messages.
 *
 * All non-fatal output funnels through a single mutexed, line-buffered
 * sink so messages emitted concurrently (e.g. from sim::JobPool
 * workers) never interleave mid-line. A thread can additionally be
 * tagged with a job index (ScopedJobTag): its lines are then prefixed
 * with "[jN] " and, when a capture buffer is installed, accumulated
 * there instead of written directly — the pool flushes captured
 * buffers in submission order, making parallel-sweep output
 * byte-identical to a serial run.
 */

#ifndef SPECSLICE_COMMON_LOGGING_HH
#define SPECSLICE_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace specslice
{

namespace logging_detail
{

/** Concatenate a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace logging_detail

/**
 * Tag the current thread's log lines with a job index and
 * (optionally) buffer them for an ordered flush. Used by sim::JobPool
 * around each task; nesting is not supported.
 */
class ScopedJobTag
{
  public:
    /**
     * @param index submission index of the job (>= 0)
     * @param capture when non-null, lines are appended here (already
     *        prefixed) instead of being written to stderr; the caller
     *        flushes the buffer when it chooses (writeCaptured()).
     */
    ScopedJobTag(long index, std::string *capture);
    ~ScopedJobTag();

    ScopedJobTag(const ScopedJobTag &) = delete;
    ScopedJobTag &operator=(const ScopedJobTag &) = delete;

    /** Write a captured buffer to stderr under the sink mutex. */
    static void writeCaptured(const std::string &buffered);
};

/** Abort: an internal simulator invariant was violated (a bug). */
#define SS_PANIC(...)                                                     \
    ::specslice::logging_detail::panicImpl(                               \
        __FILE__, __LINE__, ::specslice::logging_detail::concat(__VA_ARGS__))

/** Exit: the simulation cannot continue due to a user/config error. */
#define SS_FATAL(...)                                                     \
    ::specslice::logging_detail::fatalImpl(                               \
        __FILE__, __LINE__, ::specslice::logging_detail::concat(__VA_ARGS__))

/** Non-fatal warning to the user. */
#define SS_WARN(...)                                                      \
    ::specslice::logging_detail::warnImpl(                                \
        ::specslice::logging_detail::concat(__VA_ARGS__))

/** Informational status message. */
#define SS_INFORM(...)                                                    \
    ::specslice::logging_detail::informImpl(                              \
        ::specslice::logging_detail::concat(__VA_ARGS__))

/** Panic when a condition that must hold does not. */
#define SS_ASSERT(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            SS_PANIC("assertion '", #cond, "' failed: ",                  \
                     ::specslice::logging_detail::concat(__VA_ARGS__));   \
        }                                                                 \
    } while (0)

} // namespace specslice

#endif // SPECSLICE_COMMON_LOGGING_HH
