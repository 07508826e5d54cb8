#include "sim/job_pool.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <system_error>
#include <thread>
#include <utility>

#include "common/logging.hh"

namespace specslice::sim
{

unsigned
JobPool::defaultJobs()
{
    if (const char *v = std::getenv("SS_JOBS")) {
        char *end = nullptr;
        errno = 0;
        unsigned long parsed = std::strtoul(v, &end, 10);
        bool bad = *v == '\0' || v[0] == '-' || end == nullptr ||
                   *end != '\0' || errno == ERANGE || parsed == 0 ||
                   parsed > 4096;
        if (bad) {
            std::fprintf(stderr,
                         "error: SS_JOBS='%s' is not a job count in "
                         "[1, 4096]\n",
                         v);
            std::exit(2);
        }
        return static_cast<unsigned>(parsed);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

JobPool::JobPool(unsigned jobs) : jobs_(jobs ? jobs : defaultJobs()) {}

void
JobPool::forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body)
{
    // Each job's log/trace output is tagged with its index and
    // captured; buffers are flushed in index order, so the bytes
    // hitting stderr do not depend on the thread count.
    const long base = nextIndex_.fetch_add(static_cast<long>(n));
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            const long index = base + static_cast<long>(i);
            std::string buffered;
            {
                ScopedJobTag tag(index, &buffered);
                try {
                    body(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
            completeOutput(index, std::move(buffered));
        }
    };
    {
        std::vector<std::jthread> helpers;  // joined at scope end
        const std::size_t threads = std::min<std::size_t>(jobs_, n);
        try {
            for (std::size_t t = 1; t < threads; ++t)
                helpers.emplace_back(drain);
        } catch (const std::system_error &) {
            // Fewer threads only make the batch slower.
        }
        drain();
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

void
JobPool::completeOutput(long index, std::string &&buffered)
{
    std::lock_guard<std::mutex> lock(outMutex_);
    if (index != outNext_) {
        outPending_.emplace(index, std::move(buffered));
        return;
    }
    ScopedJobTag::writeCaptured(buffered);
    ++outNext_;
    for (auto it = outPending_.begin();
         it != outPending_.end() && it->first == outNext_;
         it = outPending_.erase(it)) {
        ScopedJobTag::writeCaptured(it->second);
        ++outNext_;
    }
}

} // namespace specslice::sim
