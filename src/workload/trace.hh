/**
 * @file
 * Correct-path dynamic trace sources.
 *
 * A TraceSource produces a benchmark's architecturally-correct dynamic
 * instruction sequence: this is what a trace file contains. The SMT
 * core consumes one TraceSource per hardware thread; wrong-path fetch
 * does NOT come from here (it reads the static dictionary directly),
 * so the source position always identifies the next correct-path
 * instruction.
 *
 * Two backends implement the interface: SyntheticTraceStream walks a
 * BenchmarkImage's CFG and behaviour models (the statistical SPECint
 * profiles), and FileTraceStream (workload/trace_file.hh) replays a
 * recorded trace file. Any source can additionally be captured to a
 * file through setRecorder, which is how `smtsim --record` serializes
 * synthetic runs.
 */

#ifndef SMTFETCH_WORKLOAD_TRACE_HH
#define SMTFETCH_WORKLOAD_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/static_inst.hh"
#include "workload/program_builder.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class TraceWriter;

/** One correct-path dynamic instruction. */
struct TraceRecord
{
    const StaticInst *si = nullptr;

    /** For CTIs: did control transfer? (non-CTIs: false) */
    bool taken = false;

    /** Address of the next correct-path instruction. */
    Addr nextPc = invalidAddr;

    /** Effective address for loads/stores. */
    Addr memAddr = invalidAddr;

    Addr pc() const { return si->pc; }
};

/** Aggregate statistics accumulated while generating a trace. */
struct TraceStats
{
    std::uint64_t insts = 0;
    std::uint64_t ctis = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenCtis = 0;
    std::uint64_t takenCond = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** Dynamic average basic-block size (insts per CTI). */
    double
    avgBlockSize() const
    {
        return ctis == 0 ? 0.0
                         : static_cast<double>(insts) /
                               static_cast<double>(ctis);
    }

    /** Dynamic average stream length (insts per taken CTI). */
    double
    avgStreamLength() const
    {
        return takenCtis == 0 ? 0.0
                              : static_cast<double>(insts) /
                                    static_cast<double>(takenCtis);
    }
};

/**
 * Abstract correct-path instruction source for one benchmark.
 *
 * The base class owns everything the consumer-facing contract needs —
 * lookahead (peek, peekAhead), per-thread statistics, an optional
 * capture recorder, and a bounded replay ring supporting rewinds to a
 * recently-consumed position, which squash mechanisms that discard
 * correct-path instructions (the long-latency-load FLUSH policy) need
 * to refetch them. Backends implement generate(): produce the next
 * never-before-seen record. Records are generated ahead of
 * consumption into a pending buffer, refilled through generateBatch(),
 * which a backend overrides with a loop over its own generate().
 */
class TraceSource
{
  public:
    /** Rewind window in records (must exceed max per-thread
     *  in-flight instructions plus fetch run-ahead). */
    static constexpr std::size_t replayWindow = 4096;

    /** Records requested from generateBatch() per refill. */
    static constexpr std::size_t batchRecords = 64;

    /** @param image Must outlive the source. */
    explicit TraceSource(const BenchmarkImage &image) : img(image) {}

    virtual ~TraceSource() = default;

    /**
     * The next correct-path record, without consuming it. Like every
     * record reference this class returns, it stays valid until the
     * next call on the source.
     */
    const TraceRecord &
    peek()
    {
        if (nextIndex < generatedCount)
            return ring[nextIndex % replayWindow];
        if (pendingHead == pendingEnd)
            refill();
        return pending[pendingHead];
    }

    /**
     * The record `offset` positions past the next one, without
     * consuming anything (peekAhead(0) == peek()). Records past the
     * generation frontier wait in the pending buffer until next()
     * consumes them, so statistics and recording still happen
     * exactly once, at consumption order. The perfect-BP oracle in
     * core/front_end.cc uses this to read the correct path ahead of
     * the fetch stage.
     */
    const TraceRecord &peekAhead(std::uint64_t offset);

    /** PC of the next correct-path instruction. */
    Addr peekPc() { return peek().si->pc; }

    /** Consume and return the next correct-path record. */
    const TraceRecord &next();

    /** Index of the next record next() will return. */
    std::uint64_t position() const { return nextIndex; }

    /**
     * Rewind so that next() re-delivers the record that was at
     * `index`. The index must be within the replay window.
     */
    void rewindTo(std::uint64_t index);

    /** Statistics over everything generated so far. */
    const TraceStats &stats() const { return tstats; }

    /** The benchmark image this source executes over. */
    const BenchmarkImage &image() const { return img; }

    /**
     * Capture every newly-generated record to `writer` (replays after
     * a rewind are not re-recorded). The writer must outlive the
     * source or be detached with nullptr.
     */
    void setRecorder(TraceWriter *writer) { recorder = writer; }

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). The base
     * state (replay ring, positions, statistics, lookahead) is shared;
     * each backend appends what it needs to resume generation —
     * model/RNG state for the synthetic stream, a file position for
     * the replay stream. restore() requires a freshly-constructed
     * source over the identical image.
     */
    /// @{
    virtual void save(CheckpointWriter &w) const = 0;
    virtual void restore(CheckpointReader &r) = 0;
    /// @}

  protected:
    /** Produce the record following everything generated so far. */
    virtual TraceRecord generate() = 0;

    /**
     * Produce the next records into out[0, n): at least one, or throw
     * the error the first of them would raise. The default produces
     * one record with generate().
     * @return The number of records produced.
     */
    virtual std::size_t generateBatch(TraceRecord *out, std::size_t n);

    /** @name Base-state serialization for backends. */
    /// @{
    void saveBase(CheckpointWriter &w) const;
    void restoreBase(CheckpointReader &r);

    /** Records generate() has produced (checkpoint file skipping). */
    std::uint64_t
    generatedRecords() const
    {
        return generatedCount + (pendingEnd - pendingHead);
    }
    /// @}

    const BenchmarkImage &img;

  private:
    /** Generate at least one more pending record. */
    void refill();

    TraceWriter *recorder = nullptr;

    /** Generated, not yet consumed records: pending[pendingHead,
     *  pendingEnd). The checkpoint format calls the first of them the
     *  upcoming record and the rest the lookahead. */
    std::vector<TraceRecord> pending;
    std::size_t pendingHead = 0;
    std::size_t pendingEnd = 0;

    TraceStats tstats;

    /** Replay ring: records [generated - window, generated). */
    std::vector<TraceRecord> ring{replayWindow};
    std::uint64_t generatedCount = 0; //!< records ever consumed
    std::uint64_t nextIndex = 0;      //!< next record to deliver
};

/**
 * Infinite synthetic correct-path stream: walks the image's CFG,
 * consulting its branch/indirect/memory behaviour models. The stream
 * owns private copies of the models, so multiple streams over the same
 * image are independent.
 */
class SyntheticTraceStream : public TraceSource
{
  public:
    /** @param image Must outlive the stream. */
    explicit SyntheticTraceStream(const BenchmarkImage &image);

    void save(CheckpointWriter &w) const override;
    void restore(CheckpointReader &r) override;

  protected:
    TraceRecord generate() override;
    std::size_t generateBatch(TraceRecord *out, std::size_t n) override;

  private:
    std::vector<BranchModel> branchModels;
    std::vector<IndirectModel> indirectModels;
    std::vector<MemoryModel> memModels;

    Addr pc;
    std::vector<Addr> callStack;
    std::uint64_t oracleHistory = 0;
    std::uint64_t oraclePathSig = 0;

    static constexpr std::size_t maxCallDepth = 64;
};

} // namespace smt

#endif // SMTFETCH_WORKLOAD_TRACE_HH
