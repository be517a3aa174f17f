/**
 * @file
 * Declarative experiment specs: a JSON document naming workloads,
 * fetch engines, N.X policies, parameter overrides and measurement
 * windows expands into an ExperimentRunner grid. One spec file per
 * paper figure/table/ablation lives under configs/, and the smtsim
 * CLI executes them through this layer. A spec's "expect" array
 * states the paper's shape claims about its grid; checkClaims()
 * evaluates them against a run.
 */

#ifndef SMTFETCH_SIM_SWEEP_SPEC_HH
#define SMTFETCH_SIM_SWEEP_SPEC_HH

#include <optional>
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
 * non-empty, else the working directory.
 */
std::string benchRecordDir(const std::string &dir_override = "");

/**
 * Fail fast on an unwritable directory: throws SpecError naming the
 * directory and its `role` ("output directory", "checkpoint
 * directory") unless a file can actually be created in it. The CLI
 * calls this before running a grid so a typo'd --out-dir or
 * --checkpoint-dir is caught in milliseconds, not after minutes of
 * simulation.
 */
void ensureWritableDir(const std::string &dir, const char *role);

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

/** Grid points named by the coordinates a selector fixes. */
struct PointSelector
{
    std::optional<std::string> workload;
    std::optional<EngineKind> engine;

    /** (fetchThreads, fetchWidth). */
    std::optional<std::pair<unsigned, unsigned>> policy;
};

/**
 * One paper claim from a spec's "expect" array: for every point the
 * lhs selector matches, metric(lhs) op factor * metric(rhs). The rhs
 * is either a bare number or the point the rhs selector matches that
 * agrees with the lhs point on every coordinate neither selector
 * fixes (workload, engine, N.X policy, selection policy, overrides).
 * The claim holds when at least `atLeast` such pairs do.
 */
struct Expectation
{
    std::string claim;
    bool ipfc = false; //!< compare IPFC rather than IPC
    PointSelector lhs;
    std::string op;    //!< "<", "<=", ">" or ">="
    PointSelector rhs;
    std::optional<double> rhsValue; //!< bare-number rhs
    double factor = 1.0;
    std::optional<std::size_t> atLeast; //!< default: every pair
    std::string expectedToFail; //!< why a known divergence fails
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
     * Event-driven cycle skipping (default on; results are
     * bit-identical either way). `smtsim --no-cycle-skip` clears it
     * for debugging.
     */
    bool cycleSkip = true;

    /** Share warmups through snapshots persisted here (keyed by
     *  configuration hash; see SweepRequest::checkpointDir). */
    std::string checkpointDir;

    std::vector<SweepBlock> sweeps;

    /**
     * Shape claims about the grid. They are statements about the
     * spec's own warmupCycles, measureCycles and seed: smtsim checks
     * them only at those windows.
     */
    std::vector<Expectation> expect;

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
     * exactly what `smtsim <spec>` runs.
     */
    SweepRequest makeRequest() const;

    /**
     * Evaluate every "expect" clause against the results of this
     * spec's grid, one verdict per clause in spec order. Throws
     * SpecError when the results cannot pair a clause's points.
     */
    std::vector<ClaimVerdict>
    checkClaims(const std::vector<ExperimentResult> &results) const;

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
 * Write a BENCH_<bench>.json record into benchRecordDir(dir_override).
 * `claims`, when given, becomes the record's `expectations` block.
 * Returns false when the file cannot be written.
 */
bool writeBenchRecord(
    const std::string &bench,
    const std::vector<ExperimentResult> &results,
    const std::vector<std::pair<std::string, double>> &metrics = {},
    const std::string &dir_override = "",
    const SweepTiming *timing = nullptr,
    const std::vector<ClaimVerdict> *claims = nullptr);

} // namespace smt

#endif // SMTFETCH_SIM_SWEEP_SPEC_HH
