/**
 * @file
 * Structured failure handling on top of the panic()/fatal() reporting
 * in common/logging.hh:
 *
 *  - SimError: a typed exception carrying the failure kind (Panic,
 *    Fatal) and the formatted message.
 *  - ScopedThrowErrors: while installed on a thread, SS_PANIC/SS_FATAL
 *    on that thread throw SimError instead of killing the process. A
 *    sweep job that must not take the sweep down with it installs one
 *    and catches the error (specslice_verify reports the workload as
 *    "error"); tools install one around their runs to report a
 *    failure as a machine-readable document.
 */

#ifndef SPECSLICE_COMMON_FAILURE_HH
#define SPECSLICE_COMMON_FAILURE_HH

#include <stdexcept>
#include <string>

namespace specslice
{

/** A simulation failure turned into an exception (see above). */
class SimError : public std::runtime_error
{
  public:
    enum class Kind
    {
        Panic,  ///< internal invariant violation (SS_PANIC)
        Fatal,  ///< user/config error (SS_FATAL)
    };

    SimError(Kind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {}

    Kind kind() const { return kind_; }

    static const char *kindName(Kind kind);

  private:
    Kind kind_;
};

/**
 * While alive, SS_PANIC/SS_FATAL on this thread throw SimError
 * (Panic/Fatal) instead of aborting/exiting. Nests; thread-local.
 */
class ScopedThrowErrors
{
  public:
    ScopedThrowErrors();
    ~ScopedThrowErrors();

    ScopedThrowErrors(const ScopedThrowErrors &) = delete;
    ScopedThrowErrors &operator=(const ScopedThrowErrors &) = delete;

    /** Is throw-mode active on the calling thread? */
    static bool active();
};

namespace failure_detail
{

/** Throw the SimError for a panic/fatal in throw-mode. */
[[noreturn]] void throwError(SimError::Kind kind, const char *file,
                             int line, const std::string &msg);

} // namespace failure_detail

} // namespace specslice

#endif // SPECSLICE_COMMON_FAILURE_HH
