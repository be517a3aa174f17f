/**
 * @file
 * The three shared issue queues of Table 3 (32-entry int, 32-entry
 * ld/st, 32-entry fp) with age-ordered, FU-limited ready selection.
 *
 * Selection is event driven. Each queue is at most 64 fixed slots
 * described by bitmasks: `valid`, and `wait1`/`wait2` (source 1 or 2
 * not ready yet). For every physical register of its class a queue
 * also keeps two waiter masks, the slots whose source 1 or source 2
 * waits on that register. insert() sets an entry's wait bits from
 * the rename scoreboard; markReady(), called at writeback, clears the
 * register's waiters out of wait1/wait2 and zeroes them. A ready
 * entry is then `valid & ~(wait1 | wait2)`, so pickReady() and
 * hasReady() never visit a waiting entry, and an insertion stamp per
 * slot restores age order among the ready ones.
 *
 * This selects exactly what a per-cycle scan of every entry against
 * the scoreboard would select, because while an entry waits the
 * ready bits of its sources only go 0 -> 1, and every 0 -> 1 step is
 * a writeback through markReady(). A source register goes back to
 * 0 only when it is renamed again after being freed, and it is freed
 * only (a) when a younger writer of the same architectural register
 * commits, which in-order commit puts after the consumer has issued
 * and left the queue, or (b) by a rollback, which squashes the
 * consumer too because the consumer is younger than the producer it
 * reads. squash() clears a removed entry's bits from the waiter
 * masks, so a reused slot is never woken by a stale register.
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
    /** Most entries one queue holds: one bit per slot of a mask. */
    static constexpr unsigned maxEntries = 64;

    /**
     * @param phys_int, phys_fp Physical registers per class (the
     *        int and ld/st queues wait on int registers, the fp
     *        queue on fp registers).
     */
    IssueQueues(unsigned int_cap, unsigned ldst_cap, unsigned fp_cap,
                unsigned phys_int, unsigned phys_fp);

    bool
    hasSpace(IqClass c) const
    {
        const Queue &q = queueFor(c);
        return q.valid != q.capMask;
    }

    /** Insert in dispatch order (age order is preserved); which
     *  sources wait is read from the rename scoreboard. */
    void insert(DynInst *inst, const RenameUnit &rename);

    /**
     * Writeback: mark `phys` ready in the scoreboard and wake every
     * entry waiting on it. The scoreboard's only 0 -> 1 step, so the
     * two can never disagree.
     */
    void markReady(RenameUnit &rename, RegIndex phys, bool fp);

    /**
     * Select ready instructions oldest-first, at most the given
     * per-class FU counts, removing them from the queues. The output
     * holds the int picks, then ld/st, then fp.
     */
    void pickReady(unsigned int_fus, unsigned ldst_fus, unsigned fp_fus,
                   std::vector<DynInst *> &out);

    /** Would pickReady() select anything right now? */
    bool
    hasReady() const
    {
        return queues[0].readyMask() != 0 ||
               queues[1].readyMask() != 0 ||
               queues[2].readyMask() != 0;
    }

    /** Remove all instructions of `tid` younger than `seq`. */
    void squash(ThreadID tid, InstSeqNum seq);

    /** @name O(1) occupancy (population counts of the masks). */
    /// @{
    unsigned occupancy(IqClass c) const;
    unsigned totalOccupancy() const;

    /** Per-thread entries currently waiting (for diagnostics). */
    unsigned threadOccupancy(ThreadID tid) const;
    /// @}

    void clear();

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). Each queue
     * is saved as its entries' (thread, sequence) references in age
     * order and re-resolved against the restored ROB, which owns the
     * instructions. Restore re-inserts in that order, so the wait
     * bits are recomputed from the already-restored scoreboard.
     */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r, Rob &rob,
                 const RenameUnit &rename);
    /// @}

  private:
    using Mask = std::uint64_t;

    /** One class's slots; see the file comment. */
    struct Queue
    {
        Mask capMask = 0; //!< the slots this queue may use
        Mask valid = 0;
        Mask wait1 = 0;
        Mask wait2 = 0;
        std::array<DynInst *, maxEntries> inst{};
        std::array<std::uint64_t, maxEntries> stamp{};
        std::array<Mask, maxThreads> threadSlots{};

        /** Per physical register: {source-1, source-2} waiters. */
        std::vector<std::array<Mask, 2>> waiters;

        Mask readyMask() const { return valid & ~(wait1 | wait2); }

        /** Valid slots, oldest first. */
        unsigned ageOrder(Mask slots,
                          std::array<unsigned, maxEntries> &order) const;

        void wake(RegIndex phys);
        void remove(unsigned slot);
    };

    Queue &queueFor(IqClass c) { return queues[static_cast<int>(c)]; }
    const Queue &
    queueFor(IqClass c) const
    {
        return queues[static_cast<int>(c)];
    }

    /** Indexed by IqClass. */
    std::array<Queue, 3> queues;

    /** Insertion counter behind Queue::stamp. */
    std::uint64_t nextStamp = 0;
};

} // namespace smt

#endif // SMTFETCH_CORE_IQ_HH
