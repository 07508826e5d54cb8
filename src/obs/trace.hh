/**
 * @file
 * Component-scoped debug tracing in the gem5 DPRINTF style. Each
 * subsystem traces under a named flag (fetch, smt, corr, slice, mem,
 * pred); flags are armed at startup from the SS_TRACE environment
 * variable or a --trace=flag,flag command-line option, and every
 * trace point is a single relaxed atomic load + branch when its flag
 * is off.
 *
 *     SS_DTRACE(Corr, "bound tok=", token, " pc=0x", std::hex, pc);
 *
 * Lines are emitted whole through the shared logging sink (see
 * common/logging.hh), so concurrent jobs never interleave mid-line
 * and pool workers get their lines tagged with the job index and
 * flushed in submission order.
 */

#ifndef SPECSLICE_OBS_TRACE_HH
#define SPECSLICE_OBS_TRACE_HH

#include <atomic>
#include <string>

#include "common/logging.hh"

namespace specslice::obs
{

enum class TraceFlag : unsigned
{
    Fetch,  ///< per-instruction fetch: pc, seq, thread, wrong path
    Smt,    ///< pipeline control: issue, retire, squash, redirects
    Corr,   ///< correlator: entries, predictions, matches, kills
    Slice,  ///< slice engine: forks, terminations, iteration limits
    Mem,    ///< memory hierarchy: misses, prefetches, write buffer
    Pred,   ///< branch predictor: resolutions and mispredictions
    NumFlags
};

namespace trace_detail
{
/** Bitmask of enabled flags; namespace scope so the enabled() check
 *  inlines to one relaxed load at every trace point. */
inline std::atomic<unsigned> mask{0};
} // namespace trace_detail

/** Is the flag enabled? Hot-path safe (relaxed load + test). */
inline bool
traceEnabled(TraceFlag f)
{
    return trace_detail::mask.load(std::memory_order_relaxed) &
           (1u << static_cast<unsigned>(f));
}

class TraceSink
{
  public:
    static TraceSink &instance();

    /**
     * Arm flags from a comma-separated list ("corr,slice"). "all"
     * (or "1", the historical SS_TRACE value) enables every flag; an
     * unknown name is a fatal configuration error listing the valid
     * names.
     */
    void setFlags(const std::string &csv);

    /**
     * Non-fatal variant of setFlags() for CLI validation: on an
     * unknown name, arms nothing further, fills `err` with a message
     * listing the valid names, and returns false. Flags named before
     * the bad token stay armed.
     */
    bool trySetFlags(const std::string &csv, std::string &err);

    void enable(TraceFlag f);
    void disable(TraceFlag f);
    void disableAll();

    /**
     * Arm flags from the SS_TRACE environment variable if set. Safe
     * to call more than once (flags accumulate).
     */
    void initFromEnv();

    /**
     * Emit one trace line: "[trace:<flag>] <msg>" through the shared
     * logging sink (or the installed collector). The flag should be
     * checked (traceEnabled) before formatting msg; SS_DTRACE does
     * both.
     */
    void write(TraceFlag f, const std::string &msg);

    /**
     * Redirect trace lines into `lines` (for tests); null restores
     * stderr. The collector is not synchronized — install it only
     * while no traced simulation is running concurrently.
     */
    void setCollector(std::string *lines);

    static const char *flagName(TraceFlag f);

  private:
    TraceSink() = default;
    std::string *collector_ = nullptr;
};

} // namespace specslice::obs

/**
 * Trace under obs::TraceFlag::flag. Costs one relaxed load + branch
 * when the flag is off; formats and emits a full line when on.
 */
#define SS_DTRACE(flag, ...)                                              \
    do {                                                                  \
        if (::specslice::obs::traceEnabled(                               \
                ::specslice::obs::TraceFlag::flag)) [[unlikely]] {        \
            ::specslice::obs::TraceSink::instance().write(                \
                ::specslice::obs::TraceFlag::flag,                        \
                ::specslice::logging_detail::concat(__VA_ARGS__));        \
        }                                                                 \
    } while (0)

#endif // SPECSLICE_OBS_TRACE_HH
