/**
 * @file
 * The scheduler half of the ExperimentRunner split: SweepScheduler
 * owns a bounded worker pool and a round-robin run queue of submitted
 * sweeps. Each worker claims ONE grid point from the job at the front
 * of the queue, then sends the job to the back, so concurrent sweeps
 * make fair interleaved progress instead of queueing whole-sweep
 * FIFO. Points themselves run through a PointExecutor
 * (sim/executor.hh), which shares warmup snapshots through the
 * scheduler's WarmupSnapshotCache.
 */

#ifndef SMTFETCH_SIM_SCHEDULER_HH
#define SMTFETCH_SIM_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/executor.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace smt
{

class WarmupSnapshotCache;

/**
 * Executes one claimed grid point (given its grid index) instead of
 * the in-process PointExecutor. Called outside the scheduler lock from
 * worker threads; must be thread-safe; throwing fails the job like an
 * executor throw.
 */
using PointRunner =
    std::function<PointOutcome(std::size_t, const GridPoint &)>;

/** Per-submit extras: a custom point runner and resume support. */
struct SweepSubmitOptions
{
    /** Non-null routes every point through this runner. */
    PointRunner runner;

    /** Journal every completed point here (resume support). */
    std::shared_ptr<SweepJournal> journal;

    /** Points already completed by a previous run: prefilled
     *  into the report, never claimed, never re-simulated. */
    std::vector<JournalEntry> precompleted;
};

/**
 * The default worker-pool size: the CPUs this thread may run on (its
 * affinity mask, so `taskset` and cpusets are honoured), falling back
 * to std::thread::hardware_concurrency, and never 0.
 */
unsigned defaultSweepWorkers();

/**
 * Queues SweepRequests and runs their grid points across a bounded
 * worker pool. Thread-safe throughout; jobs (and their reports) live
 * until the scheduler is destroyed.
 */
class SweepScheduler
{
  public:
    using JobId = std::uint64_t;
    using SubmitOptions = SweepSubmitOptions;

    /**
     * @param workers pool size; 0 picks defaultSweepWorkers().
     * @param cache shared warmup-snapshot cache for reuse-enabled
     *        requests (null: every request runs the direct path).
     */
    explicit SweepScheduler(unsigned workers = 0,
                            WarmupSnapshotCache *cache = nullptr);
    ~SweepScheduler();

    SweepScheduler(const SweepScheduler &) = delete;
    SweepScheduler &operator=(const SweepScheduler &) = delete;

    /**
     * Queue a sweep. Validates the request up front (duplicate
     * record paths throw std::invalid_argument) and precomputes the
     * warmup grouping. Returns immediately. `name` labels the sweep
     * for the caller only; the scheduler does not read it.
     */
    JobId submit(const SweepRequest &request, std::string name = "",
                 SubmitOptions options = {});

    /**
     * Block until every point of the job has finished. Returns the
     * report, or rethrows the first failing point's exception.
     */
    SweepReport wait(JobId id);

  private:
    struct Job
    {
        std::vector<GridPoint> points;
        PointExecutor executor;
        bool reuseEnabled = false;
        PointRunner runner;
        std::shared_ptr<SweepJournal> journal;

        std::deque<std::size_t> pending; //!< unclaimed, grid order
        std::size_t inFlight = 0; //!< points executing right now
        bool finished = false;    //!< drained; report or error final
        std::exception_ptr error; //!< the first failing point's

        SweepReport report; //!< results grow in place, grid order
        std::uint64_t evictionsAtSubmit = 0;

        Job(const SweepRequest &request, WarmupSnapshotCache *cache,
            SubmitOptions options);
    };

    void workerLoop();

    /** Under `m`: mark a drained job finished and wake waiters. */
    void finalizeLocked(Job &job);

    std::mutex m;
    std::condition_variable cvWork; //!< run-queue pushes
    std::condition_variable cvDone; //!< jobs finishing
    std::map<JobId, std::unique_ptr<Job>> jobs;
    std::deque<JobId> runQueue; //!< ≤ 1 token per unfinished job
    JobId nextId = 1;
    bool stopping = false;

    WarmupSnapshotCache *cache;
    std::vector<std::thread> pool;
};

} // namespace smt

#endif // SMTFETCH_SIM_SCHEDULER_HH
