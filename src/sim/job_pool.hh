/**
 * @file
 * An ordered parallel map for sweeps of independent experiment rows.
 * Every Simulator::run owns its machine and memory state, so a sweep
 * over benchmarks (or over independent configurations) is
 * embarrassingly parallel; map() supplies the threads and the
 * ordering discipline that keeps sweep output byte-identical to a
 * serial run:
 *
 *  - results are returned in item order (map() fills a slot per item;
 *    callers format/print only after the whole batch is done);
 *  - log lines a job emits (SS_WARN, SS_INFORM) are
 *    captured per job via ScopedJobTag, prefixed with the job's index
 *    ("[jN] "; indices keep counting across batches), and flushed to
 *    stderr in index order as jobs complete — so sweep output is
 *    byte-identical no matter the thread count;
 *  - every job of a batch runs; then the first exception in item
 *    order is rethrown on the calling thread;
 *  - the calling thread is one of the jobs() threads, so a pool with
 *    one job runs every item in order on the caller: `--jobs 1` is
 *    exactly the serial execution.
 *
 * A sweep that must survive a failing job installs ScopedThrowErrors
 * (common/failure.hh) inside the job and catches the SimError there.
 *
 * The job count comes from (in priority order) an explicit
 * constructor argument (the `--jobs N` flag of the bench drivers and
 * tools), the SS_JOBS environment variable, and hardware_concurrency.
 */

#ifndef SPECSLICE_SIM_JOB_POOL_HH
#define SPECSLICE_SIM_JOB_POOL_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace specslice::sim
{

class JobPool
{
  public:
    /** @param jobs thread count; 0 selects defaultJobs(). */
    explicit JobPool(unsigned jobs = 0);

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** The thread count this pool runs with (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * The job count used when none is given explicitly: SS_JOBS if
     * set (validated; exits with a message on garbage), otherwise
     * hardware_concurrency (at least 1). Read per call so tests can
     * vary the environment.
     */
    static unsigned defaultJobs();

    /**
     * Run fn over every item on up to jobs() threads and return the
     * results in item order, regardless of completion order. If any
     * job threw, the first exception in item order is rethrown once
     * the whole batch has run.
     */
    template <typename Item, typename Fn>
    auto
    map(const std::vector<Item> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, const Item &>>
    {
        using R = std::invoke_result_t<Fn &, const Item &>;
        std::vector<std::optional<R>> slots(items.size());
        forEach(items.size(), [&](std::size_t i) {
            slots[i].emplace(fn(items[i]));
        });
        std::vector<R> out;
        out.reserve(slots.size());
        for (auto &s : slots)
            out.push_back(std::move(*s));
        return out;
    }

  private:
    /**
     * Call body(i) once for every i in [0, n), each under its job tag,
     * on up to jobs() threads (the caller included). Returns after
     * every call has finished; rethrows the lowest i's exception.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body);

    /**
     * Record job `index`'s captured log output as complete and flush
     * the contiguous prefix of completed buffers (in index order) to
     * stderr.
     */
    void completeOutput(long index, std::string &&buffered);

    unsigned jobs_;
    /** Job index of the next batch's first item. */
    std::atomic<long> nextIndex_{0};
    std::mutex outMutex_;
    std::map<long, std::string> outPending_;
    long outNext_ = 0;
};

} // namespace specslice::sim

#endif // SPECSLICE_SIM_JOB_POOL_HH
