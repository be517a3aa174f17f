#include "core/iq.hh"

#include <algorithm>
#include <bit>

#include "core/rob.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace smt
{

IssueQueues::IssueQueues(unsigned int_cap, unsigned ldst_cap,
                         unsigned fp_cap, unsigned phys_int,
                         unsigned phys_fp)
{
    const unsigned caps[3] = {int_cap, ldst_cap, fp_cap};
    for (unsigned c = 0; c < 3; ++c) {
        if (caps[c] > maxEntries)
            panic("issue queue capacity %u exceeds %u", caps[c],
                  maxEntries);
        queues[c].capMask = caps[c] == maxEntries
                                ? ~Mask{0}
                                : (Mask{1} << caps[c]) - 1;
    }
    queueFor(IqClass::Int).waiters.resize(phys_int);
    queueFor(IqClass::LdSt).waiters.resize(phys_int);
    queueFor(IqClass::Fp).waiters.resize(phys_fp);
}

unsigned
IssueQueues::Queue::ageOrder(Mask slots,
                             std::array<unsigned, maxEntries> &order) const
{
    // Insertion sort by stamp: the ready set is usually a handful of
    // slots.
    unsigned n = 0;
    for (; slots != 0; slots &= slots - 1) {
        unsigned s = static_cast<unsigned>(std::countr_zero(slots));
        unsigned i = n++;
        for (; i > 0 && stamp[order[i - 1]] > stamp[s]; --i)
            order[i] = order[i - 1];
        order[i] = s;
    }
    return n;
}

void
IssueQueues::Queue::wake(RegIndex phys)
{
    auto &w = waiters[static_cast<std::size_t>(phys)];
    wait1 &= ~w[0];
    wait2 &= ~w[1];
    w = {0, 0};
}

void
IssueQueues::Queue::remove(unsigned slot)
{
    const Mask bit = Mask{1} << slot;
    const DynInst *d = inst[slot];
    if (wait1 & bit)
        waiters[static_cast<std::size_t>(d->physSrc1)][0] &= ~bit;
    if (wait2 & bit)
        waiters[static_cast<std::size_t>(d->physSrc2)][1] &= ~bit;
    valid &= ~bit;
    wait1 &= ~bit;
    wait2 &= ~bit;
    threadSlots[d->tid] &= ~bit;
}

void
IssueQueues::insert(DynInst *inst, const RenameUnit &rename)
{
    Queue &q = queueFor(iqClassFor(inst->op));
    const Mask free = q.capMask & ~q.valid;
    if (free == 0)
        panic("IQ overflow");
    const unsigned slot = static_cast<unsigned>(std::countr_zero(free));
    const Mask bit = Mask{1} << slot;
    q.valid |= bit;
    q.inst[slot] = inst;
    q.stamp[slot] = nextStamp++;
    q.threadSlots[inst->tid] |= bit;

    const bool fp = usesFpRegs(inst->op);
    if (!rename.isReady(inst->physSrc1, fp)) {
        q.wait1 |= bit;
        q.waiters[static_cast<std::size_t>(inst->physSrc1)][0] |= bit;
    }
    if (!rename.isReady(inst->physSrc2, fp)) {
        q.wait2 |= bit;
        q.waiters[static_cast<std::size_t>(inst->physSrc2)][1] |= bit;
    }
}

void
IssueQueues::markReady(RenameUnit &rename, RegIndex phys, bool fp)
{
    if (phys == invalidReg)
        return;
    rename.markReady(phys, fp);
    if (fp) {
        queueFor(IqClass::Fp).wake(phys);
    } else {
        queueFor(IqClass::Int).wake(phys);
        queueFor(IqClass::LdSt).wake(phys);
    }
}

void
IssueQueues::pickReady(unsigned int_fus, unsigned ldst_fus,
                       unsigned fp_fus, std::vector<DynInst *> &out)
{
    const unsigned limits[3] = {int_fus, ldst_fus, fp_fus};
    std::array<unsigned, maxEntries> order;
    for (unsigned c = 0; c < 3; ++c) {
        Queue &q = queues[c];
        const Mask ready = q.readyMask();
        if (ready == 0)
            continue;
        const unsigned n = std::min(q.ageOrder(ready, order), limits[c]);
        for (unsigned i = 0; i < n; ++i) {
            out.push_back(q.inst[order[i]]);
            q.remove(order[i]);
        }
    }
}

void
IssueQueues::squash(ThreadID tid, InstSeqNum seq)
{
    for (Queue &q : queues)
        for (Mask m = q.threadSlots[tid]; m != 0; m &= m - 1) {
            unsigned slot = static_cast<unsigned>(std::countr_zero(m));
            if (q.inst[slot]->seq > seq)
                q.remove(slot);
        }
}

unsigned
IssueQueues::occupancy(IqClass c) const
{
    return static_cast<unsigned>(std::popcount(queueFor(c).valid));
}

unsigned
IssueQueues::totalOccupancy() const
{
    unsigned n = 0;
    for (const Queue &q : queues)
        n += static_cast<unsigned>(std::popcount(q.valid));
    return n;
}

unsigned
IssueQueues::threadOccupancy(ThreadID tid) const
{
    unsigned n = 0;
    for (const Queue &q : queues)
        n += static_cast<unsigned>(std::popcount(q.threadSlots[tid]));
    return n;
}

void
IssueQueues::clear()
{
    for (Queue &q : queues) {
        q.valid = q.wait1 = q.wait2 = 0;
        q.threadSlots.fill(0);
        std::fill(q.waiters.begin(), q.waiters.end(),
                  std::array<Mask, 2>{0, 0});
    }
    nextStamp = 0;
}

void
IssueQueues::save(CheckpointWriter &w) const
{
    std::array<unsigned, maxEntries> order;
    for (const Queue &q : queues) {
        const unsigned n = q.ageOrder(q.valid, order);
        w.u32(n);
        for (unsigned i = 0; i < n; ++i) {
            w.i16(q.inst[order[i]]->tid);
            w.u64(q.inst[order[i]]->seq);
        }
    }
}

void
IssueQueues::restore(CheckpointReader &r, Rob &rob,
                     const RenameUnit &rename)
{
    static const char *const names[3] = {"int issue", "ld/st issue",
                                         "fp issue"};
    clear();
    for (unsigned c = 0; c < 3; ++c) {
        const char *what = names[c];
        const unsigned cap =
            static_cast<unsigned>(std::popcount(queues[c].capMask));
        std::uint32_t n =
            static_cast<std::uint32_t>(r.checkCount(r.u32(), 10, what));
        if (n > cap)
            r.fail(csprintf("%s queue holds %u entries but this "
                            "configuration caps it at %u",
                            what, n, cap));
        for (std::uint32_t i = 0; i < n; ++i) {
            ThreadID tid = r.i16();
            InstSeqNum seq = r.u64();
            if (tid < 0 ||
                static_cast<unsigned>(tid) >= rob.numThreads())
                r.fail(csprintf("%s queue references thread %d, valid "
                                "range is [0, %u) (corrupt reference)",
                                what, (int)tid, rob.numThreads()));
            DynInst *inst = rob.find(tid, seq);
            if (inst == nullptr)
                r.fail(csprintf("%s queue references instruction "
                                "(thread %d, seq %llu) that is not in "
                                "the restored ROB (corrupt reference)",
                                what, (int)tid,
                                (unsigned long long)seq));
            if (static_cast<unsigned>(iqClassFor(inst->op)) != c)
                r.fail(csprintf("%s queue references instruction "
                                "(thread %d, seq %llu) of another "
                                "queue's class (corrupt reference)",
                                what, (int)tid,
                                (unsigned long long)seq));
            insert(inst, rename);
        }
    }
}

} // namespace smt
