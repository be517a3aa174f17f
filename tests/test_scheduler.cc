/**
 * @file
 * SweepScheduler tests: fair round-robin interleaving of concurrent
 * sweeps (observed through a recording point runner), failure
 * propagation, warmup sharing across jobs through one snapshot cache,
 * bit-identical results regardless of worker count, and a default
 * pool size that honours the CPU affinity mask.
 */

#include <sched.h>

#include <filesystem>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/scheduler.hh"
#include "sim/snapshot_cache.hh"

using namespace smt;

namespace
{

/** A short n-point request over distinct fetch widths. */
SweepRequest
shortRequest(const std::string &workload, std::size_t n_points,
             Cycle warmup = 1'000, Cycle measure = 3'000)
{
    SweepRequest request;
    request.warmupCycles = warmup;
    request.measureCycles = measure;
    for (std::size_t i = 0; i < n_points; ++i)
        request.points.push_back(GridPoint{
            workload, EngineKind::GshareBtb, 1,
            unsigned(4 + 4 * i)});
    return request;
}

} // namespace

// ---------------------------------------------------------------------
// Fairness
// ---------------------------------------------------------------------

TEST(Scheduler, RoundRobinInterleavesConcurrentSweeps)
{
    // One worker makes the schedule deterministic. A plug point holds
    // that worker until a 4-point job A and a 2-point job B are both
    // queued; the single-token round-robin then strictly alternates
    // their points (A1 B1 A2 B2 A3 A4), so the short job submitted
    // SECOND still finishes first — a quick sweep is never stuck
    // behind a long one.
    SweepScheduler scheduler(1);
    std::mutex m;
    std::vector<std::string> order;
    auto recorder = [&](const std::string &job) {
        SweepSubmitOptions opts;
        opts.runner = [&, job](std::size_t i, const GridPoint &) {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(job + std::to_string(i + 1));
            PointOutcome out;
            out.direct = true;
            return out;
        };
        return opts;
    };

    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    SweepSubmitOptions plug_opts;
    plug_opts.runner = [released](std::size_t, const GridPoint &) {
        released.wait();
        PointOutcome out;
        out.direct = true;
        return out;
    };
    auto plug =
        scheduler.submit(shortRequest("gzip", 1), "plug", plug_opts);
    auto a = scheduler.submit(shortRequest("2_MIX", 4), "long",
                              recorder("A"));
    auto b = scheduler.submit(shortRequest("gzip", 2), "short",
                              recorder("B"));
    release.set_value();

    scheduler.wait(plug);
    EXPECT_EQ(scheduler.wait(a).results.size(), 4u);
    EXPECT_EQ(scheduler.wait(b).results.size(), 2u);
    EXPECT_EQ(order, (std::vector<std::string>{"A1", "B1", "A2", "B2",
                                               "A3", "A4"}));
}

// ---------------------------------------------------------------------
// Lifecycle: empty, failed
// ---------------------------------------------------------------------

TEST(Scheduler, EmptyRequestCompletesImmediately)
{
    SweepScheduler scheduler(1);
    SweepRequest request;
    auto id = scheduler.submit(request, "empty");
    SweepReport report = scheduler.wait(id);
    EXPECT_TRUE(report.results.empty());
    EXPECT_EQ(report.timing.gridPoints, 0u);
}

TEST(Scheduler, FailingPointFailsTheJobAndWaitRethrows)
{
    SweepScheduler scheduler(2);
    SweepRequest request;
    request.warmupCycles = 1'000;
    request.measureCycles = 2'000;
    request.points = {GridPoint{"trace:/nonexistent/missing.trc",
                                EngineKind::GshareBtb, 1, 8}};
    auto id = scheduler.submit(request, "broken");
    try {
        scheduler.wait(id);
        FAIL() << "wait() on a failed sweep did not throw";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Scheduler, DuplicateRecordPathsRejectedAtSubmit)
{
    SweepScheduler scheduler(1);
    SweepRequest request = shortRequest("gzip", 2);
    request.points[0].recordPath = ::testing::TempDir() + "sched_dup.trc";
    request.points[1].recordPath = request.points[0].recordPath;
    EXPECT_THROW(scheduler.submit(request), std::invalid_argument);
}

TEST(Scheduler, DerivedRecordPathCollisionsRejectedAtSubmit)
{
    // A multithreaded point records one file per thread ("X.t0.trc",
    // "X.t1.trc", ...). Collisions with those derived names must be
    // caught up front, before any worker opens a file.
    SweepScheduler scheduler(1);
    SweepRequest request = shortRequest("gzip", 2);
    request.points[0].workload = "2_MIX";
    request.points[0].recordPath =
        ::testing::TempDir() + "sched_mix.trc";
    request.points[1].recordPath =
        ::testing::TempDir() + "sched_mix.t1.trc";
    try {
        scheduler.submit(request);
        FAIL() << "derived record-path collision was not rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("sched_mix.t1.trc"),
                  std::string::npos)
            << e.what();
    }

    // Distinct bases derive distinct per-thread files and are fine.
    SweepRequest ok = shortRequest("gzip", 2);
    ok.points[0].workload = "2_MIX";
    ok.points[0].recordPath = ::testing::TempDir() + "sched_ok_a.trc";
    ok.points[1].workload = "4_MIX";
    ok.points[1].recordPath = ::testing::TempDir() + "sched_ok_b.trc";
    auto id = scheduler.submit(ok, "distinct");
    EXPECT_EQ(scheduler.wait(id).results.size(), 2u);
}

// ---------------------------------------------------------------------
// Cross-job warmup sharing
// ---------------------------------------------------------------------

TEST(Scheduler, SharedCacheWarmsAPopularConfigExactlyOnce)
{
    // Two jobs over the same single configuration share one cache:
    // whichever leads runs the warmup; the other restores. Across
    // both jobs the warmup simulation happens exactly once.
    WarmupSnapshotCache cache;
    SweepScheduler scheduler(2, &cache);

    SweepRequest request = shortRequest("gzip", 1, 2'000, 6'000);
    request.checkpointDir = ::testing::TempDir() + "sched_shared";
    std::filesystem::remove_all(request.checkpointDir);
    std::filesystem::create_directories(request.checkpointDir);
    auto first = scheduler.submit(request, "first");
    auto second = scheduler.submit(request, "second");
    SweepReport r1 = scheduler.wait(first);
    SweepReport r2 = scheduler.wait(second);

    EXPECT_EQ(r1.timing.warmupRuns + r2.timing.warmupRuns, 1u);
    EXPECT_EQ(r1.timing.restoredRuns + r2.timing.restoredRuns, 1u);
    // One lease led the warmup. The other point either waited on
    // that lease or, arriving after it settled, read the directory.
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().diskHits,
              r1.timing.cacheDiskHits + r2.timing.cacheDiskHits);
    EXPECT_LE(cache.stats().diskHits, 1u);

    // And sharing is invisible in the results.
    EXPECT_EQ(r1.results[0].ipfc, r2.results[0].ipfc);
    EXPECT_EQ(r1.results[0].ipc, r2.results[0].ipc);
    EXPECT_EQ(r1.results[0].statsJson, r2.results[0].statsJson);
}

// ---------------------------------------------------------------------
// Determinism across pool sizes
// ---------------------------------------------------------------------

TEST(Scheduler, ResultsAreBitIdenticalAcrossWorkerCounts)
{
    SweepRequest request = shortRequest("2_MIX", 4, 2'000, 6'000);

    SweepScheduler serial(1);
    SweepReport one = serial.wait(serial.submit(request));

    SweepScheduler parallel(4);
    SweepReport four = parallel.wait(parallel.submit(request));

    ASSERT_EQ(one.results.size(), four.results.size());
    for (std::size_t i = 0; i < one.results.size(); ++i) {
        EXPECT_EQ(one.results[i].ipfc, four.results[i].ipfc);
        EXPECT_EQ(one.results[i].ipc, four.results[i].ipc);
        EXPECT_EQ(one.results[i].statsJson, four.results[i].statsJson);
    }
}

// ---------------------------------------------------------------------
// Default pool size
// ---------------------------------------------------------------------

TEST(Scheduler, DefaultWorkersFollowTheAffinityMask)
{
    // Pinned to one CPU (as under `taskset -c 0`), the default pool
    // must be one worker, not one per CPU in the machine.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE && cpu < 0; ++c)
        if (CPU_ISSET(c, &saved))
            cpu = c;
    ASSERT_GE(cpu, 0);

    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    unsigned pinned = defaultSweepWorkers();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(defaultSweepWorkers(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}
