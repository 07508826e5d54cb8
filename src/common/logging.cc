#include "common/logging.hh"

#include <mutex>

#include "common/failure.hh"

namespace specslice
{
namespace logging_detail
{

namespace
{

/** Per-thread job tag state, installed by ScopedJobTag. */
thread_local long tls_job_index = -1;
thread_local std::string *tls_capture = nullptr;

/** The mutex every write to stderr serializes on. */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

/** Render "[jN] " when the thread is job-tagged, "" otherwise. */
std::string
jobPrefix()
{
    if (tls_job_index < 0)
        return {};
    return "[j" + std::to_string(tls_job_index) + "] ";
}

/**
 * Emit one complete line ("<tag>: <msg>\n", or "[jN] <tag>: <msg>\n"
 * from a job-tagged thread): appended to the thread's capture buffer
 * when one is installed, otherwise written to stderr under
 * sinkMutex().
 */
void
emitLine(const char *tag, const std::string &msg)
{
    std::string line = jobPrefix() + tag + ": " + msg + '\n';
    if (tls_capture) {
        tls_capture->append(line);
        return;
    }
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::fwrite(line.data(), 1, line.size(), stderr);
}

/** Flush whatever this thread buffered before dying (panic/fatal):
 *  buffered lines must not vanish with the process. */
void
dumpCaptureOnExit()
{
    if (tls_capture && !tls_capture->empty()) {
        std::lock_guard<std::mutex> lock(sinkMutex());
        std::fwrite(tls_capture->data(), 1, tls_capture->size(),
                    stderr);
        tls_capture->clear();
    }
}

} // namespace

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedThrowErrors::active())
        failure_detail::throwError(SimError::Kind::Panic, file, line,
                                   msg);
    dumpCaptureOnExit();
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedThrowErrors::active())
        failure_detail::throwError(SimError::Kind::Fatal, file, line,
                                   msg);
    dumpCaptureOnExit();
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn", msg);
}

void
informImpl(const std::string &msg)
{
    emitLine("info", msg);
}

} // namespace logging_detail

ScopedJobTag::ScopedJobTag(long index, std::string *capture)
{
    logging_detail::tls_job_index = index;
    logging_detail::tls_capture = capture;
}

ScopedJobTag::~ScopedJobTag()
{
    logging_detail::tls_job_index = -1;
    logging_detail::tls_capture = nullptr;
}

void
ScopedJobTag::writeCaptured(const std::string &buffered)
{
    if (buffered.empty())
        return;
    std::lock_guard<std::mutex> lock(logging_detail::sinkMutex());
    std::fwrite(buffered.data(), 1, buffered.size(), stderr);
}

} // namespace specslice
