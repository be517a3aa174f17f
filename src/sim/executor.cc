#include "sim/executor.hh"

#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim/snapshot_cache.hh"
#include "util/logging.hh"

namespace smt
{

namespace
{

ExperimentResult
resultFrom(const GridPoint &point, const ExecutorParams &params,
           const Simulator &sim)
{
    ExperimentResult r;
    r.workload = point.workload;
    r.engine = point.engine;
    r.policy = point.policy;
    r.fetchThreads = point.fetchThreads;
    r.fetchWidth = point.fetchWidth;
    r.overrides = point.overrides;
    r.warmupCycles = params.warmupCycles;
    r.measureCycles = params.measureCycles;
    r.stats = sim.stats();
    r.ipfc = r.stats.ipfc();
    r.ipc = r.stats.ipc();
    // The end-of-measurement snapshot, not the live registry: on
    // padded recording runs the live counters include pad activity.
    r.statsJson = sim.measuredStatsJson();
    return r;
}

} // namespace

SimConfig
PointExecutor::configFor(const GridPoint &point) const
{
    SimConfig cfg =
        table3Config(point.workload, point.engine, point.fetchThreads,
                     point.fetchWidth, point.policy);
    point.overrides.apply(cfg.core);
    cfg.core.cycleSkip = params.cycleSkip;
    cfg.warmupCycles = params.warmupCycles;
    cfg.measureCycles = params.measureCycles;
    cfg.seed = params.seed;
    cfg.recordPath = point.recordPath;
    cfg.recordPadCycles = point.recordPadCycles;
    return cfg;
}

std::string
PointExecutor::warmupKey(const GridPoint &point) const
{
    return warmupConfigKey(configFor(point));
}

bool
PointExecutor::reusable(const GridPoint &point)
{
    return point.recordPath.empty();
}

PointOutcome
PointExecutor::runDirect(const GridPoint &point) const
{
    PointOutcome out;
    Simulator sim(configFor(point));
    sim.run();
    out.result = resultFrom(point, params, sim);
    out.direct = true;
    return out;
}

PointOutcome
PointExecutor::execute(const GridPoint &point) const
{
    if (cache == nullptr || !reusable(point))
        return runDirect(point);

    std::string key = warmupKey(point);
    auto acquired = cache->acquire(key, snapshotDir);

    if (acquired.snapshot) {
        Simulator sim(configFor(point));
        // Errors name the directory's file: the snapshot was read
        // from it, or its leader just wrote it there.
        const std::string source =
            snapshotDir.empty()
                ? std::string("<shared warmup snapshot>")
                : WarmupSnapshotCache::diskPathFor(snapshotDir, key);
        try {
            sim.restoreCheckpointFromString(*acquired.snapshot, source);
        } catch (const CheckpointError &e) {
            // Stale or corrupt snapshot (a damaged file, a config-hash
            // collision): warn and run this point the plain way
            // rather than aborting the sweep.
            warn("ignoring unusable warmup checkpoint: %s", e.what());
            return runDirect(point);
        }
        PointOutcome out;
        sim.runMeasure();
        out.result = resultFrom(point, params, sim);
        out.restored = true;
        out.diskHit = acquired.diskHit;
        return out;
    }

    // This point holds the key's warmup lease: run the warmup,
    // publish the snapshot, then keep measuring on the warm
    // simulator (it literally is the uninterrupted run).
    PointOutcome out;
    Simulator sim(configFor(point));
    try {
        sim.runWarmup();
        cache->fulfil(key, sim.saveCheckpointToString(), snapshotDir);
    } catch (...) {
        cache->abandon(key);
        throw;
    }
    sim.runMeasure();
    out.result = resultFrom(point, params, sim);
    out.ranWarmup = true;
    return out;
}

} // namespace smt
