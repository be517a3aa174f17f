/**
 * @file
 * Simulator: owns the workload images, per-thread trace streams and
 * the core; runs warmup + measurement.
 */

#ifndef SMTFETCH_SIM_SIMULATOR_HH
#define SMTFETCH_SIM_SIMULATOR_HH

#include <memory>
#include <vector>

#include "core/smt_core.hh"
#include "sim/sim_config.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"
#include "workload/workloads.hh"

namespace smt
{

/** One self-contained simulation instance. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config);

    /** Warmup (stats cleared afterwards) then measurement. */
    void run();

    /**
     * @name Split run phases. runWarmup simulates the warmup window
     * and clears statistics; runMeasure simulates the measurement
     * window. run() is exactly runWarmup() followed by runMeasure(),
     * and a checkpoint taken between the two captures the state an
     * uninterrupted run has at that boundary.
     */
    /// @{
    void runWarmup();
    void runMeasure();
    /// @}

    /**
     * @name Checkpoint save/restore. A checkpoint is a byte string
     * holding the complete simulator state (core, predictors, caches,
     * trace positions) plus the warmup configuration key; restore
     * verifies the checksum and the key, requires a freshly-
     * constructed simulator, and refuses recording runs (the trace
     * file would silently miss its prefix). All failures are
     * CheckpointErrors naming `context` (the snapshot's file, say)
     * and the fix.
     */
    /// @{
    std::string saveCheckpointToString() const;
    void restoreCheckpointFromString(
        const std::string &data,
        const std::string &context = "<memory>");
    /// @}

    /** Run additional cycles beyond what run() executed. */
    void runExtra(Cycle cycles);

    const SimStats &stats() const { return core_->stats(); }

    /** Unified named-statistics registry of the underlying core. */
    const StatsRegistry &registry() const { return core_->registry(); }

    SmtCore &core() { return *core_; }
    const SimConfig &config() const { return cfg; }
    const WorkloadImages &workload() const { return images; }
    TraceSource &trace(ThreadID tid) { return *traces[tid]; }

    /**
     * Capture path for a given thread when the config records the
     * run: the configured path itself for single-thread workloads,
     * else with a ".t<tid>" inserted before the extension.
     */
    static std::string recordPathFor(const std::string &base,
                                     ThreadID tid,
                                     unsigned num_threads);

    /**
     * The stats-registry JSON dump as of the end of measurement.
     * Identical to registry().jsonString() except on recording runs
     * with a pad, where the live registry keeps counting engine and
     * memory activity during the pad window; consumers wanting the
     * measured run (ExperimentRunner) must use this snapshot.
     */
    const std::string &measuredStatsJson() const
    {
        return measuredJson;
    }

  private:
    SimConfig cfg;
    std::string measuredJson;
    WorkloadImages images;
    std::vector<std::unique_ptr<TraceWriter>> recorders;
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::unique_ptr<SmtCore> core_;
};

} // namespace smt

#endif // SMTFETCH_SIM_SIMULATOR_HH
