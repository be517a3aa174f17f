/**
 * @file
 * The executor half of the ExperimentRunner split: PointExecutor runs
 * exactly one grid point — building its SimConfig, warming up (or
 * restoring a shared warmup snapshot from a WarmupSnapshotCache) and
 * measuring — and reports the result and which path served it in a
 * PointOutcome. It does not time itself (host speed is perfbench/'s
 * to measure) and holds no queueing or grid state; SweepScheduler
 * (sim/scheduler.hh) owns that.
 */

#ifndef SMTFETCH_SIM_EXECUTOR_HH
#define SMTFETCH_SIM_EXECUTOR_HH

#include <string>

#include "sim/experiment.hh"

namespace smt
{

class WarmupSnapshotCache;

/** The per-point execution parameters shared by a whole sweep. */
struct ExecutorParams
{
    Cycle warmupCycles = 50'000;
    Cycle measureCycles = 300'000;
    std::uint64_t seed = 0;
    bool cycleSkip = true;
};

/** What executing one point produced and how it was served. */
struct PointOutcome
{
    ExperimentResult result;

    /** Exactly one of the three is set. */
    bool ranWarmup = false; //!< led a warmup (snapshot published)
    bool restored = false;  //!< served from a cached snapshot
    bool direct = false;    //!< outside the reuse path entirely

    /** The restore was served by the directory (restored only). */
    bool diskHit = false;
};

/**
 * Runs single grid points. Thread-safe: execute() holds no mutable
 * state, so one PointExecutor can serve every worker thread of a
 * scheduler.
 *
 * With a cache, reusable points go through single-flight warmup
 * leasing: the first point of a warmup-key group runs the warmup and
 * publishes the snapshot; every other point (in this sweep or any
 * concurrent one sharing the cache) restores it. Without a cache —
 * or for recording points, where a restored run would capture a
 * truncated trace — the point runs the plain warmup+measure path.
 */
class PointExecutor
{
  public:
    /**
     * @param cache null disables warmup sharing entirely.
     * @param snapshot_dir the checkpoint directory snapshots persist
     *        in (empty: shared within leases only); ignored when
     *        cache is null.
     */
    PointExecutor(const ExecutorParams &params,
                  WarmupSnapshotCache *cache = nullptr,
                  std::string snapshot_dir = "")
        : params(params), cache(cache),
          snapshotDir(std::move(snapshot_dir))
    {
    }

    /** The full simulator configuration a point runs under. */
    SimConfig configFor(const GridPoint &point) const;

    /** The point's warmup-sharing group key (warmupConfigKey). */
    std::string warmupKey(const GridPoint &point) const;

    /** False when the point records a trace. */
    static bool reusable(const GridPoint &point);

    /** Run the point to completion; throws on simulation errors
     *  (never leaves a warmup lease dangling). */
    PointOutcome execute(const GridPoint &point) const;

  private:
    PointOutcome runDirect(const GridPoint &point) const;

    ExecutorParams params;
    WarmupSnapshotCache *cache;
    std::string snapshotDir;
};

} // namespace smt

#endif // SMTFETCH_SIM_EXECUTOR_HH
