/**
 * @file
 * The three shared issue queues of Table 3 (32-entry int, 32-entry
 * ld/st, 32-entry fp) with age-ordered, FU-limited ready selection.
 */

#ifndef SMTFETCH_CORE_IQ_HH
#define SMTFETCH_CORE_IQ_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/dyn_inst.hh"
#include "core/rename.hh"
#include "util/types.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class Rob;

/** Which issue queue an instruction waits in. */
enum class IqClass : unsigned char { Int, LdSt, Fp };

/** Map an op class to its queue. */
constexpr IqClass
iqClassFor(OpClass op)
{
    if (isMemory(op))
        return IqClass::LdSt;
    if (op == OpClass::FpAlu)
        return IqClass::Fp;
    return IqClass::Int;
}

/** The three shared issue queues. */
class IssueQueues
{
  public:
    IssueQueues(unsigned int_cap, unsigned ldst_cap, unsigned fp_cap);

    bool hasSpace(IqClass c) const;

    /** Insert in dispatch order (age order is preserved). */
    void insert(DynInst *inst);

    /**
     * Select ready instructions oldest-first, at most the given
     * per-class FU counts, removing them from the queues.
     */
    void pickReady(const RenameUnit &rename, unsigned int_fus,
                   unsigned ldst_fus, unsigned fp_fus,
                   std::vector<DynInst *> &out);

    /** Would pickReady() select anything right now? */
    bool hasReady(const RenameUnit &rename) const;

    /** Remove all instructions of `tid` younger than `seq`. */
    void squash(ThreadID tid, InstSeqNum seq);

    /** @name O(1) occupancy. Per-class counts are the queue sizes;
     *  the per-thread counts are maintained incrementally by
     *  insert/pickReady/squash instead of scanning every in-flight
     *  instruction. */
    /// @{
    unsigned occupancy(IqClass c) const;
    unsigned totalOccupancy() const;

    /** Per-thread entries currently waiting (for diagnostics). */
    unsigned
    threadOccupancy(ThreadID tid) const
    {
        return threadOcc[tid];
    }
    /// @}

    void clear();

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). Queue
     * entries are saved as (thread, sequence) references and
     * re-resolved against the restored ROB, which owns the
     * instructions.
     */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r, Rob &rob);
    /// @}

  private:
    /**
     * A waiting instruction with the operands selection reads, copied
     * at insert (renaming is finished by then), so the per-cycle scans
     * walk a compact array and never dereference a DynInst.
     */
    struct Entry
    {
        DynInst *inst;
        RegIndex physSrc1;
        RegIndex physSrc2;
        ThreadID tid;
        bool fp;
    };

    using Queue = std::vector<Entry>;

    static Entry
    entryFor(DynInst *inst)
    {
        return {inst, inst->physSrc1, inst->physSrc2, inst->tid,
                usesFpRegs(inst->op)};
    }

    Queue &queueFor(IqClass c);
    const Queue &queueFor(IqClass c) const;

    Queue intQ;
    Queue ldstQ;
    Queue fpQ;
    unsigned intCap;
    unsigned ldstCap;
    unsigned fpCap;

    /** Incrementally-maintained per-thread entry counts. */
    std::array<unsigned, maxThreads> threadOcc{};
};

} // namespace smt

#endif // SMTFETCH_CORE_IQ_HH
