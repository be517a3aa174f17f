#include "sim/scheduler.hh"

#include <sched.h>

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "sim/simulator.hh"
#include "sim/snapshot_cache.hh"
#include "util/logging.hh"
#include "workload/workloads.hh"

namespace smt
{

namespace
{

/**
 * Fail fast when two grid points would capture to the same trace
 * file: the second run would silently overwrite the first recording.
 * Multi-thread workloads record one file per thread (the ".t<tid>"
 * derived paths), so the collision check runs over the expanded
 * per-thread file set — two points whose base paths differ can still
 * collide on a derived path.
 */
void
checkRecordPathsUnique(const std::vector<GridPoint> &points)
{
    std::unordered_map<std::string, std::size_t> seen;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string &path = points[i].recordPath;
        if (path.empty())
            continue;
        const unsigned threads =
            workloadThreadCount(points[i].workload);
        for (unsigned t = 0; t < threads; ++t) {
            const std::string derived =
                Simulator::recordPathFor(path, t, threads);
            auto [it, inserted] = seen.emplace(derived, i);
            if (!inserted)
                throw std::invalid_argument(csprintf(
                    "grid points %zu and %zu both record to \"%s\" "
                    "— the second run would silently overwrite the "
                    "first capture; record each point to a distinct "
                    "file",
                    it->second, i, derived.c_str()));
        }
    }
}

} // namespace

SweepScheduler::Job::Job(const SweepRequest &request,
                         WarmupSnapshotCache *cache, SubmitOptions options)
    : points(request.points),
      executor(ExecutorParams{request.warmupCycles,
                              request.measureCycles, request.seed,
                              request.cycleSkip},
               request.reuseEnabled() ? cache : nullptr,
               request.checkpointDir),
      reuseEnabled(request.reuseEnabled() &&
                   (cache != nullptr || options.runner != nullptr)),
      runner(std::move(options.runner)),
      journal(std::move(options.journal))
{
    report.results.resize(points.size());
    auto &t = report.timing;
    t.gridPoints = points.size();
    t.reuseEnabled = reuseEnabled;
    if (reuseEnabled) {
        // Precompute the warmup grouping so the report's
        // warmupGroups is exact even when another job sharing the
        // cache leads some of this job's warmups.
        std::unordered_set<std::string> keys;
        for (const GridPoint &p : points) {
            if (PointExecutor::reusable(p))
                keys.insert(executor.warmupKey(p));
        }
        t.warmupGroups = keys.size();
    }

    // Prefill journaled completions: the report carries their
    // original results, and they are never claimed.
    std::vector<bool> done(points.size(), false);
    for (JournalEntry &e : options.precompleted) {
        if (e.index >= points.size() || done[e.index])
            continue;
        done[e.index] = true;
        report.results[e.index] = std::move(e.result);
        ++t.journaledPoints;
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        if (!done[i])
            pending.push_back(i);
}

unsigned
defaultSweepWorkers()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 &&
        CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SweepScheduler::SweepScheduler(unsigned workers,
                               WarmupSnapshotCache *cache)
    : cache(cache)
{
    if (workers == 0)
        workers = defaultSweepWorkers();
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([this] { workerLoop(); });
}

SweepScheduler::~SweepScheduler()
{
    {
        std::lock_guard<std::mutex> lock(m);
        stopping = true;
    }
    cvWork.notify_all();
    for (auto &t : pool)
        t.join();
}

SweepScheduler::JobId
SweepScheduler::submit(const SweepRequest &request, std::string,
                       SubmitOptions options)
{
    checkRecordPathsUnique(request.points);

    auto job = std::make_unique<Job>(request, cache, std::move(options));
    job->evictionsAtSubmit =
        (job->reuseEnabled && cache) ? cache->stats().evictions : 0;

    std::lock_guard<std::mutex> lock(m);
    JobId id = nextId++;
    Job &ref = *job;
    jobs.emplace(id, std::move(job));
    if (ref.pending.empty()) {
        // Empty grid, or every point was already journaled by a
        // previous run: finished immediately.
        finalizeLocked(ref);
    } else {
        runQueue.push_back(id);
        cvWork.notify_all();
    }
    return id;
}

SweepReport
SweepScheduler::wait(JobId id)
{
    std::unique_lock<std::mutex> lock(m);
    auto it = jobs.find(id);
    if (it == jobs.end())
        throw std::invalid_argument(
            csprintf("unknown sweep job id %llu",
                     (unsigned long long)id));
    Job &job = *it->second;
    cvDone.wait(lock, [&] { return job.finished; });
    if (job.error)
        std::rethrow_exception(job.error);
    return job.report;
}

void
SweepScheduler::finalizeLocked(Job &job)
{
    if (job.reuseEnabled && cache)
        job.report.timing.cacheEvictions =
            cache->stats().evictions - job.evictionsAtSubmit;
    job.finished = true;
    // Release the runner's captures and close the journal now, not
    // when the scheduler is destroyed. Safe here — the job is
    // drained, so no thread is inside the runner.
    job.runner = nullptr;
    job.journal.reset();
    cvDone.notify_all();
}

void
SweepScheduler::workerLoop()
{
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
        cvWork.wait(lock,
                    [&] { return stopping || !runQueue.empty(); });
        if (stopping)
            return;

        JobId id = runQueue.front();
        runQueue.pop_front();
        Job &job = *jobs.at(id);
        if (job.pending.empty())
            continue; // tombstone token (failed job)

        // Claim exactly one point, then send the job to the back of
        // the queue: concurrent sweeps interleave point-by-point
        // instead of draining whole-sweep FIFO.
        std::size_t i = job.pending.front();
        job.pending.pop_front();
        ++job.inFlight;
        if (!job.pending.empty()) {
            runQueue.push_back(id);
            cvWork.notify_one();
        }

        lock.unlock();
        PointOutcome outcome;
        std::exception_ptr error;
        try {
            outcome = job.runner
                          ? job.runner(i, job.points[i])
                          : job.executor.execute(job.points[i]);
        } catch (...) {
            error = std::current_exception();
        }
        // The journal has its own lock and flushes per line; keep
        // the file write outside the scheduler lock.
        if (!error && job.journal)
            job.journal->append(i, outcome.result);
        lock.lock();

        --job.inFlight;
        if (error) {
            if (!job.error)
                job.error = error;
            job.pending.clear(); // stop further claims
        } else {
            job.report.results[i] = std::move(outcome.result);
            auto &t = job.report.timing;
            if (outcome.ranWarmup)
                ++t.warmupRuns;
            if (outcome.direct)
                ++t.directRuns;
            if (outcome.restored) {
                ++t.restoredRuns;
                if (outcome.diskHit)
                    ++t.cacheDiskHits;
                else
                    ++t.cacheHits;
            }
        }

        if (job.inFlight == 0 && job.pending.empty())
            finalizeLocked(job);
    }
}

} // namespace smt
