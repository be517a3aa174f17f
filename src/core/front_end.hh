/**
 * @file
 * The decoupled SMT front-end: a prediction stage that pushes fetch
 * blocks into per-thread FTQs, and a fetch stage that drives I-cache
 * accesses from FTQ heads and delivers instructions into the shared
 * fetch buffer. Implements the paper's N.X fetch policies: up to X
 * instructions total per cycle from up to N threads, one I-cache line
 * access per selected thread, with bank-conflict modelling when N > 1.
 */

#ifndef SMTFETCH_CORE_FRONT_END_HH
#define SMTFETCH_CORE_FRONT_END_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bpred/fetch_engine.hh"
#include "core/dyn_inst.hh"
#include "core/fetch_policy.hh"
#include "core/ftq.hh"
#include "core/params.hh"
#include "core/rob.hh"
#include "core/sim_stats.hh"
#include "mem/hierarchy.hh"
#include "workload/trace.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;

/**
 * Shared-capacity fetch buffer. Total occupancy is bounded (32 in
 * Table 3) so a clogged thread squeezes everyone's fetch, but threads
 * decode from their own queues — one stalled thread does not
 * head-of-line block the others. A thread's buffered instructions are
 * always the youngest entries of its ROB list, in order, so the buffer
 * holds only counts: SmtCore finds the oldest one by ROB index.
 */
struct FetchBuffer
{
    std::array<unsigned, maxThreads> count{};
    unsigned total = 0;
    unsigned capacity = 32;

    unsigned free() const { return capacity - total; }

    void
    push(ThreadID tid)
    {
        ++count[tid];
        ++total;
    }

    void
    pop(ThreadID tid)
    {
        --count[tid];
        --total;
    }

    void
    clear()
    {
        count.fill(0);
        total = 0;
    }
};

/** Prediction stage + fetch stage + per-thread fetch state. */
class FrontEnd
{
  public:
    FrontEnd(const CoreParams &params, FetchEngine &engine,
             MemoryHierarchy &memory, FetchPolicy &policy, Rob &rob,
             SimStats &stats);

    /** Bind a thread to its trace and benchmark image. */
    void setThread(ThreadID tid, TraceSource *trace,
                   const BenchmarkImage *image);

    /**
     * One cycle of the prediction stage (N predictor ports).
     * `rotation` is the fetch policy's tie-break pointer
     * (FetchPolicy::order).
     */
    void predictionStage(Cycle now, unsigned rotation,
                         const std::uint32_t *icounts);

    /**
     * One cycle of the fetch stage. Delivered instructions are
     * created at the tail of their thread's ROB list, counted into
     * `fetch_buffer` and into `icounts`.
     */
    void fetchStage(Cycle now, unsigned rotation, std::uint32_t *icounts,
                    FetchBuffer &fetch_buffer);

    /** Squash: clear the FTQ and restart fetch at `pc` next cycle. */
    void redirect(ThreadID tid, Addr pc, Cycle now);

    /**
     * Long-latency-load policy support: stop predicting and fetching
     * for the thread until the given cycle (cleared by any redirect).
     */
    void stallThread(ThreadID tid, Cycle until);

    /**
     * Rewind the thread's trace so fetch re-delivers from `index`
     * (squashes that discard consumed correct-path instructions).
     */
    void
    rewindTrace(ThreadID tid, std::uint64_t index)
    {
        threads[tid].trace->rewindTo(index);
    }

    bool
    memStalled(ThreadID tid, Cycle now) const
    {
        return threads[tid].memStallUntil > now;
    }

    /** @name Cycle-skip support (core/smt_core.cc).
     *
     * The two quiescence predicates mirror the per-thread skip
     * conditions of predictionStage/fetchStage exactly: when they
     * hold, a tick of the corresponding stage touches nothing — no
     * predictor access, no I-cache access, no stat — so the stages
     * return on them before ranking the threads. They are
     * time-varying only through the three per-thread stall deadlines,
     * which nextDeadlineAfter exposes as wake-up events.
     */
    /// @{
    /** Would predictionStage(now) be a pure no-op? */
    bool
    predictQuiescent(Cycle now) const
    {
        for (const ThreadState &ts : threads)
            if (ts.active && ts.predictStallUntil <= now &&
                ts.memStallUntil <= now && !ts.ftq.full())
                return false;
        return true;
    }

    /** Would fetchStage(now) attempt no I-cache access? (The
     *  buffer-full gate is the caller's to check: it bumps a
     *  counter, which SmtCore folds across skipped spans.) */
    bool
    fetchQuiescent(Cycle now) const
    {
        for (const ThreadState &ts : threads)
            if (ts.active && !ts.ftq.empty() &&
                ts.icacheBlockedUntil <= now && ts.memStallUntil <= now)
                return false;
        return true;
    }

    /** Earliest per-thread stall deadline strictly after `now`
     *  (I-cache fill, redirect release, long-load stall release), or
     *  `now` itself when no deadline is pending. */
    Cycle
    nextDeadlineAfter(Cycle now) const
    {
        Cycle best = now;
        for (const ThreadState &ts : threads) {
            for (Cycle d : {ts.icacheBlockedUntil, ts.predictStallUntil,
                            ts.memStallUntil}) {
                if (d > now && (best == now || d < best))
                    best = d;
            }
        }
        return best;
    }
    /// @}

    /** @name Introspection (tests, diagnostics). */
    /// @{
    Addr predPc(ThreadID tid) const { return threads[tid].predPc; }
    bool onCorrectPath(ThreadID tid) const
    {
        return threads[tid].correctPath;
    }
    const FetchTargetQueue &ftq(ThreadID tid) const
    {
        return threads[tid].ftq;
    }
    bool
    icacheBlocked(ThreadID tid, Cycle now) const
    {
        return threads[tid].icacheBlockedUntil > now;
    }

    /** The benchmark image a thread executes (checkpoint codecs). */
    const BenchmarkImage *threadImage(ThreadID tid) const
    {
        return threads[tid].image;
    }
    /// @}

    void reset();

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). Covers the
     * per-thread fetch state (FTQ contents, prediction PC, stall
     * deadlines); the trace/image bindings are re-established by
     * setThread before restore.
     */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    struct ThreadState
    {
        FetchTargetQueue ftq{4};
        Addr predPc = invalidAddr;
        bool correctPath = true;
        Cycle icacheBlockedUntil = 0;
        Cycle predictStallUntil = 0;
        Cycle memStallUntil = 0;
        TraceSource *trace = nullptr;
        const BenchmarkImage *image = nullptr;
        bool active = false;
    };

    /** Materialize one fetched instruction (oracle/wrong-path);
     *  `ckpt` is the chunk's slot in the ROB checkpoint ring. */
    DynInst &buildInst(ThreadState &ts, ThreadID tid, Addr pc,
                       const BlockPrediction &block,
                       const EngineCheckpoint &ckpt, bool is_end,
                       Cycle now);

    /**
     * Perfect-BP oracle path: build the next fetch block straight
     * from the correct-path trace (EngineParams::perfectBp). The
     * engine still provides the squash-repair checkpoint.
     */
    BlockPrediction oracleBlock(ThreadState &ts, ThreadID tid);

    /** Pseudo data address for wrong-path memory instructions. */
    static Addr wrongPathAddr(const BenchmarkImage &image, Addr pc,
                              InstSeqNum seq);

    const CoreParams &params;
    FetchEngine &engine;
    MemoryHierarchy &memory;
    FetchPolicy &policy;
    Rob &rob;
    SimStats &stats;

    std::vector<ThreadState> threads;
    std::vector<ThreadID> orderScratch;
};

} // namespace smt

#endif // SMTFETCH_CORE_FRONT_END_HH
