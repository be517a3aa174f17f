/**
 * @file
 * Dynamic (in-flight) instruction record.
 *
 * DynInsts are owned by the per-thread ROB rings; the fetch buffer
 * and the decode and rename latches are counts over the youngest
 * entries of those rings, and every other structure (issue queues,
 * event wheel) refers to them by pointer or by (thread, sequence)
 * pair. Sequence numbers are strictly increasing per thread (with
 * holes after squashes, see Rob::find), and instructions are only
 * removed at the ends (commit at the front, squash at the back), so
 * pointers to live instructions remain stable.
 */

#ifndef SMTFETCH_CORE_DYN_INST_HH
#define SMTFETCH_CORE_DYN_INST_HH

#include <cstdint>

#include "bpred/fetch_engine.hh"
#include "isa/static_inst.hh"
#include "util/types.hh"

namespace smt
{

/** Pipeline position of a dynamic instruction. */
enum class InstStage : unsigned char
{
    Fetched,    //!< in the fetch buffer
    Decoded,    //!< in the decode latch
    Renamed,    //!< in the rename latch
    Dispatched, //!< waiting in an issue queue
    Issued,     //!< executing in a functional unit
    Done,       //!< completed, waiting to commit
};

/** One in-flight dynamic instruction. */
struct DynInst
{
    ThreadID tid = invalidThread;
    InstSeqNum seq = 0;
    Addr pc = invalidAddr;

    /** Static properties; nullptr for wrong-path filler in unmapped
     *  address space. */
    const StaticInst *si = nullptr;

    /** Op class (copied; filler instructions behave as IntAlu). */
    OpClass op = OpClass::IntAlu;

    /** Writes a destination register (si && si->dst is valid);
     *  derived from the static instruction, never serialized. */
    bool hasDst = false;

    /** @name Oracle information (valid when !wrongPath). */
    /// @{
    bool wrongPath = false;
    bool oracleTaken = false;
    Addr oracleNext = invalidAddr;
    /// @}

    /** Effective address for loads/stores (pseudo on wrong path). */
    Addr memAddr = invalidAddr;

    /** @name Front-end prediction for this instruction. */
    /// @{
    bool predTaken = false;
    Addr predNext = invalidAddr;

    /** This instruction was the predicted end of its fetch block. */
    bool wasBlockEnd = false;

    /** Predicted block end, but the instruction is not a CTI. */
    bool bogusBlockEnd = false;

    /** pred != oracle; resolves (squash+redirect) at execute. */
    bool mispredicted = false;

    /**
     * Engine state before this instruction's fetch block, for squash
     * repair and commit-side training. Points into the owning Rob's
     * per-thread checkpoint ring (Rob::newCheckpoint), shared by the
     * instructions of one fetch chunk; valid while the instruction is
     * in flight.
     */
    const EngineCheckpoint *ckpt = nullptr;
    /// @}

    /** @name Rename state. */
    /// @{
    RegIndex physSrc1 = invalidReg;
    RegIndex physSrc2 = invalidReg;
    RegIndex physDst = invalidReg;
    RegIndex prevPhysDst = invalidReg;
    RegIndex archDst = invalidReg;
    bool dstIsFp = false;
    /// @}

    InstStage stage = InstStage::Fetched;

    /** Counted in the ICOUNT front-section total right now? */
    bool inIcount = false;

    /** Global dispatch order stamp (issue age priority). */
    std::uint64_t dispatchStamp = 0;

    /** Cycle the instruction entered the fetch buffer. */
    Cycle fetchCycle = 0;

    /** Trace-stream index of this record (correct path only). */
    std::uint64_t traceIndex = 0;

    bool isControl() const { return smt::isControl(op); }
    bool isConditional() const { return smt::isConditional(op); }
    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool isMemory() const { return smt::isMemory(op); }

    /** Does this instruction trigger a squash when it executes? */
    bool
    resolvesAtExecute() const
    {
        return mispredicted && !wrongPath;
    }
};

} // namespace smt

#endif // SMTFETCH_CORE_DYN_INST_HH
