/**
 * @file
 * Layer drivers for the traced run: a timing decorator around a
 * thread's TraceSource (workload layer), and isolated replays of a
 * workload's own correct path through a fresh fetch engine (bpred
 * layer) and its address streams through a fresh memory hierarchy and
 * TLBs (mem layer). The replays time the layer alone, outside the
 * core, so a change to one layer shows in its own ns-per-call figure.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <vector>

#include "core/params.hh"
#include "workload/trace.hh"

namespace perfbench
{

/**
 * Forwards every record of an inner TraceSource and accumulates the
 * time spent inside the inner source's next(). The decorator's own
 * base-class ring serves rewinds, so the inner source is consumed
 * strictly in order and the core sees the identical record sequence.
 * Keeps the first `capture_limit` records (the correct path the
 * isolated replays run over). Checkpointing through it is not
 * supported: the simulator checkpoints its own inner sources.
 */
class TimedTraceSource : public smt::TraceSource
{
  public:
    TimedTraceSource(smt::TraceSource &inner, std::size_t capture_limit);

    void save(smt::CheckpointWriter &w) const override;
    void restore(smt::CheckpointReader &r) override;

    /** Records pulled from the inner source and their total time. */
    std::uint64_t records() const { return count; }
    std::int64_t nanoseconds() const { return ns; }

    /** Zero the counters and drop the captured records (the
     *  warmup/measure boundary). */
    void
    reset()
    {
        count = 0;
        ns = 0;
        capture.clear();
    }

    const std::vector<smt::TraceRecord> &captured() const
    {
        return capture;
    }

  protected:
    smt::TraceRecord generate() override;

  private:
    smt::TraceSource &inner;
    std::size_t captureLimit;
    std::vector<smt::TraceRecord> capture;
    std::uint64_t count = 0;
    std::int64_t ns = 0;
};

/** Calls made by one replay and the time they took in total. */
struct ReplayTiming
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
};

/**
 * Replay each thread's correct path through a fresh engine of the
 * configured kind: predictBlock at every block start, commitCti for
 * every CTI the block covers, recover() where the prediction left the
 * correct path. Threads interleave block by block. `calls` counts
 * predictBlock calls.
 */
ReplayTiming
replayPredictor(const smt::CoreParams &core,
                const std::vector<const smt::StaticProgram *> &programs,
                const std::vector<std::vector<smt::TraceRecord>> &paths);

/** Timings of the memory-layer replay. */
struct MemReplay
{
    ReplayTiming icache; //!< MemoryHierarchy::icacheAccess
    ReplayTiming dcache; //!< MemoryHierarchy::dcacheAccess
    ReplayTiming tlb;    //!< Tlb::access on stand-alone I/D TLBs
};

/**
 * Replay the correct path's I-cache line stream and load/store address
 * stream (threads interleaved one access at a time) through a fresh
 * hierarchy and fresh TLBs. One untimed pass fills them, then a second
 * pass is timed.
 */
MemReplay
replayMemory(const smt::CoreParams &core,
             const std::vector<std::vector<smt::TraceRecord>> &paths);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
