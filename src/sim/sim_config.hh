/**
 * @file
 * Top-level simulation configuration: Table 3 core parameters plus a
 * workload, warmup and measurement windows.
 */

#ifndef SMTFETCH_SIM_SIM_CONFIG_HH
#define SMTFETCH_SIM_SIM_CONFIG_HH

#include <string>

#include "core/params.hh"
#include "workload/workloads.hh"

namespace smt
{

/** Everything needed to run one simulation. */
struct SimConfig
{
    CoreParams core{};
    WorkloadSpec workload{};

    /** Cycles simulated before statistics are cleared. */
    Cycle warmupCycles = 50'000;

    /** Cycles measured after warmup. */
    Cycle measureCycles = 300'000;

    /** Workload-construction seed. */
    std::uint64_t seed = 0;

    /**
     * When non-empty, capture every thread's correct-path stream to
     * this trace file (multithread runs get a ".t<tid>" per-thread
     * suffix; see Simulator::recordPathFor).
     */
    std::string recordPath;

    /** Extra cycles simulated after measurement while recording, so
     *  the captured trace has a replay safety margin. */
    Cycle recordPadCycles = 0;

    /** Human-readable one-line description. */
    std::string describe() const;
};

/**
 * The paper's baseline configuration (Table 3) for a given workload,
 * fetch engine and N.X fetch policy.
 */
SimConfig table3Config(const WorkloadSpec &workload, EngineKind engine,
                       unsigned fetch_threads, unsigned fetch_width,
                       PolicyKind policy = PolicyKind::ICount);

/** Same, looking the workload up by Table 2 name or benchmark name. */
SimConfig table3Config(const std::string &workload_name,
                       EngineKind engine, unsigned fetch_threads,
                       unsigned fetch_width,
                       PolicyKind policy = PolicyKind::ICount);

/**
 * Canonical descriptor of everything that shapes a run's warmup
 * execution: the simulator binary (the SHA-256 of /proc/self/exe),
 * workload (benchmarks, trace paths), seed, warmup window and the
 * full core/engine/memory parameter set. Two configurations
 * with equal keys execute bit-identical warmups, so they can share a
 * warmup checkpoint; measurement-only settings (measureCycles, record
 * paths, output options) are deliberately excluded. Also embedded in
 * every checkpoint file and verified on restore, so a rebuilt binary
 * never restores an older binary's warmup. Throws std::runtime_error
 * naming /proc/self/exe when the executable cannot be read.
 *
 * Keep in sync with CoreParams / EngineParams / MemoryParams: a field
 * that changes execution but is missing here would let two different
 * configurations share a warmup snapshot silently.
 */
std::string warmupConfigKey(const SimConfig &config);

} // namespace smt

#endif // SMTFETCH_SIM_SIM_CONFIG_HH
