/**
 * @file
 * SmtCore: the full 9-stage SMT pipeline (predict, fetch, decode,
 * rename, dispatch, issue, execute, writeback, commit) over shared
 * back-end resources, per Table 3 of the paper.
 *
 * cycle() is one fixed function that calls each stage back-of-pipe
 * first: the seven back-end stages are private members (bodies in
 * core/stages.cc), fetch and predict live in the FrontEnd. SmtCore
 * owns the resources, the inter-stage latches and the unified
 * StatsRegistry that it and every component register into.
 */

#ifndef SMTFETCH_CORE_SMT_CORE_HH
#define SMTFETCH_CORE_SMT_CORE_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bpred/fetch_engine.hh"
#include "core/exec.hh"
#include "core/fetch_policy.hh"
#include "core/front_end.hh"
#include "core/iq.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "core/sim_stats.hh"
#include "mem/hierarchy.hh"
#include "util/stats_registry.hh"
#include "workload/trace.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;

/** Cycle-level SMT processor model. */
class SmtCore
{
  public:
    explicit SmtCore(const CoreParams &params);

    /** Bind a hardware thread to a trace and its benchmark image. */
    void setThread(ThreadID tid, TraceSource *trace,
                   const BenchmarkImage *image);

    /** Advance the pipeline one clock. */
    void cycle();

    /**
     * Run for the given number of cycles. With params().cycleSkip
     * set (the default) the loop fast-forwards over globally
     * quiescent spans: whenever the next tick would be a pure no-op
     * for every stage, it jumps straight to the earliest wake-up
     * event (completion-wheel entry or front-end stall deadline),
     * folding the skipped cycles into the stats exactly as if they
     * had been ticked. Results are bit-identical either way.
     */
    void run(Cycle cycles);

    /**
     * Would ticking the pipeline right now change any architectural
     * or statistical state? (Cycle-skip predicate; public for tests
     * and microbenchmarks.)
     */
    bool quiescent() { return quiescentAt(currentCycle); }

    /** Measurement counters (clearable mid-run for warmup). */
    SimStats &stats() { return simStats; }
    const SimStats &stats() const { return simStats; }
    void resetStats();

    /** Unified named-statistics registry (core + components). */
    StatsRegistry &registry() { return statsRegistry; }
    const StatsRegistry &registry() const { return statsRegistry; }

    /** Total dispatched-not-committed instructions (all threads). */
    unsigned
    robOccupancy() const
    {
        unsigned total = 0;
        for (unsigned t = 0; t < coreParams.numThreads; ++t)
            total += robCount[t];
        return total;
    }

    const CoreParams &params() const { return coreParams; }
    FetchEngine &engine() { return *fetchEngine; }
    MemoryHierarchy &memory() { return memHierarchy; }
    FrontEnd &frontEnd() { return *front; }

    Cycle now() const { return currentCycle; }

    /** @name Introspection for tests. */
    /// @{
    std::uint32_t icount(ThreadID tid) const { return icounts[tid]; }
    unsigned freeIntRegs() const { return rename.freeIntRegs(); }
    unsigned freeFpRegs() const { return rename.freeFpRegs(); }
    unsigned iqOccupancy() const { return iqs.totalOccupancy(); }
    std::size_t fetchBufferSize() const { return fetchBuffer.total; }
    std::size_t inFlight(ThreadID tid) const { return rob.size(tid); }
    const DynInst &
    robEntry(ThreadID tid, std::size_t idx) const
    {
        return rob.at(tid, idx);
    }
    unsigned robOccupancyOf(ThreadID tid) const { return robCount[tid]; }

    /** Squash the thread's instructions younger than its ROB entry
     *  `idx`, a correct-path one, the way decode repairs a bogus
     *  block end (tests squash at arbitrary latch positions). */
    void
    squashYoungerThan(ThreadID tid, std::size_t idx)
    {
        if (rob.at(tid, idx).wrongPath)
            panic("squashYoungerThan: entry %zu of thread %d is on "
                  "the wrong path",
                  idx, tid);
        squashAfter(rob.at(tid, idx));
    }

    /** Recompute icounts from structures; panic on mismatch. */
    void checkIcountInvariant() const;

    /**
     * Each thread's latches must tile the young end of its ROB list:
     * past its robCount dispatched entries, the rename latch, the
     * decode latch and then the fetch buffer, each entry at its
     * latch's stage, and the buffer total must be the sum of its
     * counts. @return what breaks that, or "" when it holds.
     */
    std::string latchTilingError() const;

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). Writes the
     * full mid-flight core state — ROB contents, inter-stage latches,
     * rename maps, issue queues, the completion wheel, front-end fetch
     * state, measurement counters, predictor tables and the memory
     * hierarchy — as a fixed sequence of named component sections.
     * restoreState requires a freshly-constructed core with the same
     * configuration and threads already bound via setThread.
     */
    /// @{
    void saveState(CheckpointWriter &w) const;
    void restoreState(CheckpointReader &r);

    /** Number of component sections saveState writes. */
    static constexpr std::uint32_t checkpointSections = 9;
    /// @}

    /**
     * Observer invoked for every committed instruction (testing /
     * tracing). Called after statistics are updated.
     */
    std::function<void(const DynInst &)> commitHook;
    /// @}

  private:
    /**
     * @name Back-end stages (core/stages.cc), in tick order. Each
     * consumes what its upstream neighbour produced on an earlier
     * cycle, so no latch double-buffering is needed.
     */
    /// @{
    /** Drain this cycle's functional-unit completions into
     *  completionScratch. */
    void executeStage();

    /** Apply the completions: mark instructions done, wake
     *  dependents in the issue queues, and resolve
     *  execute-time mispredictions with a squash. */
    void writebackStage();

    /** Retire done instructions from the per-thread ROB heads,
     *  sharing the commit width round-robin; commit-side predictor
     *  training and store writeback happen here. */
    void commitStage();
    void commitInst(DynInst &inst);

    /** Out-of-order select over the shared issue queues, bounded by
     *  the functional-unit counts, plus the long-latency-load
     *  STALL/FLUSH policy (Tullsen & Brown). */
    void issueStage();

    /** Per-thread in-order rename and insert into the shared issue
     *  queues; a structural hazard stalls only its own thread. */
    void dispatchStage();

    /** Move decoded instructions into the per-thread rename
     *  latches (the decode-to-rename pipeline latch). */
    void renameStage();

    /** Drain the shared fetch buffer into the per-thread decode
     *  latches and repair bogus block ends (a predicted CTI that is a
     *  plain instruction) without waiting for execute. */
    void decodeStage();

    /**
     * Squash all instructions of offender's thread younger than the
     * offender, repair engine state, and redirect fetch. Used by
     * decode (bogus block end), issue (FLUSH policy) and writeback
     * (mispredict).
     */
    void squashAfter(DynInst &offender);
    /// @}

    /**
     * @name Stall rules, shared by the stages and quiescentAt so
     * each is written once.
     */
    /// @{
    /** The thread's ROB head is done and retires. */
    bool
    canCommit(ThreadID tid)
    {
        return !rob.empty(tid) && rob.head(tid).stage == InstStage::Done;
    }

    /** The fetch buffer drains into a non-full decode latch. */
    bool
    canDecode(ThreadID tid) const
    {
        return fetchBuffer.count[tid] != 0 &&
               decodeCount[tid] < coreParams.decodeWidth;
    }

    /** The decode latch drains into a non-full rename latch. */
    bool
    canRename(ThreadID tid) const
    {
        return decodeCount[tid] != 0 &&
               renameCount[tid] < coreParams.decodeWidth;
    }

    /** The thread's head instruction hits a structural hazard: a
     *  full per-thread ROB, a full IQ class, or no free register. */
    bool
    dispatchBlocked(ThreadID tid, const DynInst &inst) const
    {
        return robCount[tid] >= coreParams.robEntries ||
               !iqs.hasSpace(iqClassFor(inst.op)) ||
               (inst.hasDst && !rename.canAllocate(usesFpRegs(inst.op)));
    }
    /// @}

    /**
     * @name Latch positions. A thread's ROB list holds, oldest first,
     * its robCount dispatched instructions, then the rename latch,
     * the decode latch and the fetch buffer; each latch is a count
     * and its oldest entry is found by ROB index.
     */
    /// @{
    DynInst &renameHead(ThreadID tid) { return rob.at(tid, robCount[tid]); }

    std::size_t
    decodeStart(ThreadID tid) const
    {
        return robCount[tid] + renameCount[tid];
    }

    std::size_t
    bufferStart(ThreadID tid) const
    {
        return decodeStart(tid) + decodeCount[tid];
    }
    /// @}

    /** The thread after `t` in rotation order. */
    unsigned
    nextThread(unsigned t) const
    {
        return t + 1 == coreParams.numThreads ? 0 : t + 1;
    }

    /** @name Event-driven cycle skipping (see run()). */
    /// @{
    /** Per-stage no-op check for a hypothetical tick at `now`. */
    bool quiescentAt(Cycle now);

    /** Earliest event cycle in (now, limit]; `limit` when none. */
    Cycle nextWakeCycle(Cycle now, Cycle limit) const;

    /** Jump from now() to `target`, folding the span into stats. */
    void skipTo(Cycle target);
    /// @}

    /** Register the core's and every stage's stats, then the
     *  engine's and the memory hierarchy's. */
    void registerStats();

    CoreParams coreParams;
    MemoryHierarchy memHierarchy;
    std::unique_ptr<FetchEngine> fetchEngine;
    std::unique_ptr<FetchPolicy> fetchPolicy;

    Rob rob;
    RenameUnit rename;
    IssueQueues iqs;
    ExecUnit exec;
    std::unique_ptr<FrontEnd> front;

    SimStats simStats;
    StatsRegistry statsRegistry;

    /** @name Inter-stage latches: per-thread counts over the ROB
     *  lists (see the latch positions above). */
    /// @{
    FetchBuffer fetchBuffer;
    std::array<unsigned, maxThreads> decodeCount{};
    std::array<unsigned, maxThreads> renameCount{};
    /// @}

    /** ICOUNT front-section instruction counts per thread. */
    std::array<std::uint32_t, maxThreads> icounts{};

    /** Dispatched-not-committed instructions per thread (ROB use). */
    std::array<unsigned, maxThreads> robCount{};

    /** @name Stage rotation / ordering counters. */
    /// @{
    std::uint64_t stampCounter = 0;

    /** currentCycle modulo numThreads: the thread that goes first in
     *  commit, dispatch, rename and decode, and wins fetch-policy
     *  ties, this cycle. */
    unsigned rotation = 0;
    /// @}

    Cycle currentCycle = 0;

    /** @name Per-cycle scratch, produced and consumed within a tick. */
    /// @{
    /** Execute's completions this cycle, consumed by writeback. */
    std::vector<std::pair<ThreadID, InstSeqNum>> completionScratch;

    /** Issue's selected instructions this cycle. */
    std::vector<DynInst *> issueScratch;
    /// @}
};

} // namespace smt

#endif // SMTFETCH_CORE_SMT_CORE_HH
