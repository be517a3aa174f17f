/**
 * @file
 * Declarative experiment specs: a JSON document naming workloads,
 * fetch engines, N.X policies, parameter overrides and measurement
 * windows expands into an ExperimentRunner grid. One spec file per
 * paper figure/table/ablation lives under configs/; the smtsim CLI
 * and the bench binaries both execute through this layer.
 */

#ifndef SMTFETCH_SIM_SWEEP_SPEC_HH
#define SMTFETCH_SIM_SWEEP_SPEC_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "util/json.hh"

namespace smt
{

/**
 * User-facing error in an experiment spec: unreadable file, schema
 * violation, or an unresolvable workload/engine/policy name. The
 * message names the offending key and the accepted values.
 */
class SpecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** @name String-to-enum resolvers (SpecError on unknown names). */
/// @{
EngineKind engineKindFromString(const std::string &name);
PolicyKind policyKindFromString(const std::string &name);
LongLoadPolicy longLoadPolicyFromString(const std::string &name);
/// @}

/** Validate a Table 2 workload, bare benchmark, or "trace:" name. */
void validateWorkloadName(const std::string &name);

/**
 * Directory BENCH_*.json records land in: `dir_override` when
 * non-empty, else the SMTFETCH_JSON_DIR environment variable, else
 * the working directory.
 */
std::string benchRecordDir(const std::string &dir_override = "");

/**
 * Fail fast on an unwritable record directory: throws SpecError
 * naming the directory unless a file can actually be created in it.
 * The CLI calls this before running a grid so a typo'd --out-dir is
 * caught in milliseconds, not after minutes of simulation.
 */
void ensureWritableDir(const std::string &dir);

/**
 * Directory where specs are resolved by bare name: the
 * SMTFETCH_CONFIG_DIR environment variable when set, else the
 * build-time configs/ path.
 */
std::string defaultConfigDir();

/**
 * One block of a spec: the cross product of workloads, engines, N.X
 * policies, selection policies and override variants.
 */
struct SweepBlock
{
    std::vector<std::string> workloads;
    std::vector<EngineKind> engines;

    /** (fetchThreads, fetchWidth) pairs, spec order. */
    std::vector<std::pair<unsigned, unsigned>> policies;

    std::vector<PolicyKind> selections = {PolicyKind::ICount};
    std::vector<RunOverrides> overrides = {RunOverrides{}};
};

/** What a spec asks the simulator to produce. */
enum class SpecType : unsigned char
{
    Grid,            //!< (workload x engine x policy) simulations
    Characteristics, //!< Table 1 trace-model statistics
};

/** A parsed experiment spec. */
struct SweepSpec
{
    std::string name;
    SpecType type = SpecType::Grid;

    Cycle warmupCycles = 50'000;
    Cycle measureCycles = 300'000;
    std::uint64_t seed = 0;

    /** BENCH_<benchName()>.json record name; defaults to name. */
    std::string output;

    /** Instructions traced per benchmark (characteristics mode). */
    std::uint64_t instructions = 400'000;

    /**
     * Warmup-snapshot sharing: run the warmup once per unique
     * (workload, core-configuration) group, checkpoint the simulator,
     * and restore the snapshot for every other grid point in the
     * group (see SweepRequest::reuseWarmup). Bit-identical to the
     * plain path.
     */
    bool checkpointAfterWarmup = false;

    /**
     * Event-driven cycle skipping (default on; results are
     * bit-identical either way). `smtsim --no-cycle-skip` clears it
     * for debugging.
     */
    bool cycleSkip = true;

    /** Persist warmup snapshots here for reuse across sweeps (keyed
     *  by configuration hash); implies checkpointAfterWarmup. */
    std::string checkpointDir;

    std::vector<SweepBlock> sweeps;

    std::string
    benchName() const
    {
        return output.empty() ? name : output;
    }

    /** Expand every sweep block into runnable grid points. */
    std::vector<GridPoint> expand() const;

    /**
     * The full SweepRequest this spec describes: the expanded grid
     * plus windows, seed, cycle-skip and warmup-reuse settings —
     * exactly what `smtsim <spec>` and the bench wrappers run.
     */
    SweepRequest makeRequest() const;

    /** @name Construction (SpecError on any schema problem). */
    /// @{
    static SweepSpec fromJson(const JsonValue &doc,
                              const std::string &context);
    static SweepSpec fromString(const std::string &text,
                                const std::string &context = "<spec>");
    static SweepSpec fromFile(const std::string &path);
    /// @}
};

/**
 * Expand and run a grid spec through the parallel runner, honouring
 * the spec's warmup-reuse settings. The report carries both the
 * per-point results and the sweep's wall-clock accounting for the
 * bench record.
 */
SweepReport runSpec(const SweepSpec &spec);

/** Table 1 row: synthetic-model statistics for one benchmark. */
struct BenchmarkCharacteristics
{
    std::string benchmark;
    bool ilp = true;           //!< Table 1 class (ILP vs MEM)
    double paperBlockSize = 0; //!< Table 1 reference value
    double blockSize = 0;      //!< dynamic insts per CTI
    double streamLength = 0;   //!< dynamic insts per taken CTI
    double takenRate = 0;
    double loadFraction = 0;
};

/** Trace every benchmark profile for a characteristics spec. */
std::vector<BenchmarkCharacteristics>
runCharacteristics(std::uint64_t instructions);

/** Flatten characteristics rows into BENCH-record metric pairs. */
std::vector<std::pair<std::string, double>>
characteristicsMetrics(const std::vector<BenchmarkCharacteristics> &rows);

/**
 * Write a BENCH_<bench>.json record. The directory defaults to the
 * working directory, overridable by dir_override or the
 * SMTFETCH_JSON_DIR environment variable; SMTFETCH_NO_JSON=1 skips
 * emission. Returns false when the file cannot be written.
 */
bool writeBenchRecord(
    const std::string &bench,
    const std::vector<ExperimentResult> &results,
    const std::vector<std::pair<std::string, double>> &metrics = {},
    const std::string &dir_override = "",
    const SweepTiming *timing = nullptr);

} // namespace smt

#endif // SMTFETCH_SIM_SWEEP_SPEC_HH
