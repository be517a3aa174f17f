/**
 * @file
 * Execute unit: functional-unit latency model plus a completion event
 * wheel. Issue-width limits are enforced by the issue queues; this
 * unit assigns latencies (memory latency comes from the hierarchy)
 * and delivers completions by (thread, seq) so squashed instructions
 * are ignored safely.
 */

#ifndef SMTFETCH_CORE_EXEC_HH
#define SMTFETCH_CORE_EXEC_HH

#include <cstdint>
#include <vector>

#include "core/dyn_inst.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;

/** Latency assignment and completion scheduling. */
class ExecUnit
{
  public:
    ExecUnit(const CoreParams &params, MemoryHierarchy &memory);

    /**
     * Begin executing an instruction this cycle; schedules its
     * completion. Loads/stores access the D-cache here (wrong-path
     * included: they pollute the caches realistically).
     *
     * @return the assigned execution latency in cycles.
     */
    Cycle issue(DynInst &inst, Cycle now);

    /**
     * Collect (tid, seq) pairs completing at `now`.
     */
    void completionsAt(Cycle now,
                       std::vector<std::pair<ThreadID, InstSeqNum>> &out);

    /** Anything scheduled to complete exactly at `now`? */
    bool
    pendingAt(Cycle now) const
    {
        return !wheel[now % wheelSize].empty();
    }

    /**
     * Earliest cycle in (now, limit) with a scheduled completion, or
     * `limit` when there is none; the scan stops at `limit`, so a
     * near bound keeps it short. Every live event lies within one
     * wheel revolution of its issue cycle (issue() panics
     * otherwise), so a bound past that revolution scans it all.
     */
    Cycle nextEventCycle(Cycle now, Cycle limit) const;

    void reset();

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    void schedule(Cycle when, ThreadID tid, InstSeqNum seq);

    static constexpr std::size_t wheelSize = 2048;

    const CoreParams &params;
    MemoryHierarchy &memory;

    std::vector<std::vector<std::pair<ThreadID, InstSeqNum>>> wheel;
};

} // namespace smt

#endif // SMTFETCH_CORE_EXEC_HH
