/**
 * @file
 * The sweep request/report API: a SweepRequest names the grid points
 * plus the measurement windows and warmup-sharing policy, a
 * SweepReport carries every point's results and how the sweep served
 * them (counts only: host speed is measured by perfbench/, not here).
 * ExperimentRunner is a thin facade that feeds a request
 * through the scheduler/executor pair (sim/scheduler.hh,
 * sim/executor.hh) and renders paper-figure tables and BENCH_*.json
 * records.
 */

#ifndef SMTFETCH_SIM_EXPERIMENT_HH
#define SMTFETCH_SIM_EXPERIMENT_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/sim_config.hh"

namespace smt
{

class JsonWriter;

/**
 * Optional per-run deviations from the Table 3 baseline, used by the
 * ablation sweeps (FTQ depth, predictor budget, long-latency-load
 * policy) and by spec-driven grids.
 */
struct RunOverrides
{
    std::optional<unsigned> ftqEntries;
    std::optional<unsigned> fetchBufferSize;
    std::optional<unsigned> robEntries;
    std::optional<LongLoadPolicy> longLoadPolicy;
    std::optional<Cycle> longLoadThreshold;

    /**
     * Right-shift applied to every predictor table size (the Table 3
     * ~45KB budget halves per step; the A2 ablation sweep).
     */
    unsigned predictorShift = 0;

    /**
     * Engine-parameter overrides resolved through the engine
     * registry's schemas (EngineRegistry::findParam): ordered
     * (spec key, value) pairs applied to EngineParams after the
     * structural overrides, before predictorShift.
     */
    std::vector<std::pair<std::string, std::uint64_t>> engineParams;

    bool operator==(const RunOverrides &o) const = default;

    /** True when any field deviates from the baseline. */
    bool any() const;

    /** Apply the overrides to a core configuration. */
    void apply(CoreParams &core) const;

    /** Compact "ftq=4 llp=stall" rendering; empty when default. */
    std::string describe() const;

    /** Emit the non-default fields as JSON object members. */
    void writeJson(JsonWriter &jw) const;
};

/** One point of a sweep grid. */
struct GridPoint
{
    std::string workload;
    EngineKind engine;
    unsigned fetchThreads;
    unsigned fetchWidth;
    PolicyKind policy = PolicyKind::ICount;
    RunOverrides overrides{};

    /** Capture the run's correct-path streams to this trace
     *  file when non-empty (smtsim --record). */
    std::string recordPath;

    /** Extra capture cycles after measurement (--record-pad). */
    Cycle recordPadCycles = 0;
};

/** One grid point's results. */
struct ExperimentResult
{
    std::string workload;
    EngineKind engine = EngineKind::GshareBtb;
    PolicyKind policy = PolicyKind::ICount;
    unsigned fetchThreads = 1;
    unsigned fetchWidth = 8;
    RunOverrides overrides{};

    Cycle warmupCycles = 0;
    Cycle measureCycles = 0;

    double ipfc = 0.0;
    double ipc = 0.0;

    /**
     * Compact JSON object with every registered stat (the core's
     * StatsRegistry dump at the end of the run).
     */
    std::string statsJson;

    /** "1.8" / "2.16" policy suffix. */
    std::string policyDotString() const;
};

/**
 * Everything one sweep run needs: the expanded grid plus the
 * execution parameters shared by every point. The single entry point
 * is ExperimentRunner::run(request) (or SweepScheduler::submit for
 * queued/concurrent execution); there are no positional per-point
 * overloads — a one-point sweep is a one-element `points` vector.
 */
struct SweepRequest
{
    std::vector<GridPoint> points;

    Cycle warmupCycles = 50'000;
    Cycle measureCycles = 300'000;
    std::uint64_t seed = 0;

    /** Event-driven cycle skipping (bit-identical either way). */
    bool cycleSkip = true;

    /**
     * Warmup-snapshot sharing, on exactly when non-empty: group points
     * by warmup configuration key, simulate each distinct warmup once
     * (across every job of a SweepScheduler given one shared
     * WarmupSnapshotCache), and restore the snapshot for every other
     * point. Snapshots persist in this directory, so later sweeps and
     * processes reuse them too. Results are bit-identical to the
     * plain path.
     */
    std::string checkpointDir;

    /** Warmup sharing is in effect for this request. */
    bool reuseEnabled() const { return !checkpointDir.empty(); }
};

/** How a sweep served its points (the `warmupReuse` record block). */
struct SweepTiming
{
    std::size_t gridPoints = 0;
    std::size_t warmupGroups = 0;  //!< distinct warmup keys
    std::size_t warmupRuns = 0;    //!< warmups actually executed
    std::size_t restoredRuns = 0;  //!< points served by restore
    std::size_t directRuns = 0;    //!< points outside the reuse
                                   //!< path (recording, unusable
                                   //!< snapshot)

    /** Warmup sharing was active (the `warmupReuse` JSON block
     *  is only meaningful — and only emitted — when true). */
    bool reuseEnabled = false;

    /** Restored points whose snapshot was read from the checkpoint
     *  directory (the rest shared a concurrent leader's warmup). */
    std::uint64_t cacheDiskHits = 0;
};

/** A finished sweep: per-point results in grid order plus how
 *  they were served. */
struct SweepReport
{
    std::vector<ExperimentResult> results;
    SweepTiming timing;
};

/**
 * One evaluated paper claim (SweepSpec::checkClaims): an entry of the
 * BENCH record's `expectations` block.
 */
struct ClaimVerdict
{
    std::string claim;
    std::size_t holds = 0;      //!< point pairs the claim holds on
    std::size_t of = 0;         //!< point pairs compared
    std::size_t required = 0;   //!< pairs that must hold
    std::string expectedToFail; //!< non-empty for a known divergence

    bool pass() const { return holds >= required; }
};

/**
 * Facade over the scheduler/executor pair: runs one SweepRequest to
 * completion across host threads and renders results. Every
 * reuse-enabled run gets a private snapshot cache; snapshots outlive
 * the call only in request.checkpointDir.
 */
class ExperimentRunner
{
  public:
    /** Run a whole request, parallelized across host threads. */
    SweepReport run(const SweepRequest &request) const;

    /**
     * Render a figure: one row per (workload, policy) group, one
     * column per engine, values IPFC or IPC.
     */
    static void printFigure(std::ostream &os, const std::string &title,
                            const std::vector<ExperimentResult> &results,
                            bool fetch_throughput);

    /**
     * Write a machine-readable record for a bench run: one JSON
     * document with bench metadata, every grid point's metrics and
     * full stats, and optional ad-hoc named metrics, warmup-sharing
     * counts and claim verdicts (the BENCH_*.json format). Holds only
     * what the simulation determined, so a sweep without warmup
     * sharing renders byte-identically on every run.
     */
    static void
    writeJson(std::ostream &os, const std::string &bench,
              const std::vector<ExperimentResult> &results,
              const std::vector<std::pair<std::string, double>>
                  &metrics = {},
              const SweepTiming *timing = nullptr,
              const std::vector<ClaimVerdict> *claims = nullptr);
};

/**
 * Every registered engine in registry order (the three paper engines
 * first, then the zoo). Defined in bpred/engine_registry.cc alongside
 * paperEngines(), the paper trio; re-declared here because nearly
 * every sweep caller already includes this header.
 */
const std::vector<EngineKind> &allEngines();

/** The three engines the paper compares, in figure order. */
const std::vector<EngineKind> &paperEngines();

} // namespace smt

#endif // SMTFETCH_SIM_EXPERIMENT_HH
