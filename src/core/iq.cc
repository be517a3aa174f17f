#include "core/iq.hh"

#include <algorithm>

#include "core/rob.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace smt
{

IssueQueues::IssueQueues(unsigned int_cap, unsigned ldst_cap,
                         unsigned fp_cap)
    : intCap(int_cap), ldstCap(ldst_cap), fpCap(fp_cap)
{
    intQ.reserve(int_cap);
    ldstQ.reserve(ldst_cap);
    fpQ.reserve(fp_cap);
}

IssueQueues::Queue &
IssueQueues::queueFor(IqClass c)
{
    switch (c) {
      case IqClass::Int: return intQ;
      case IqClass::LdSt: return ldstQ;
      case IqClass::Fp: return fpQ;
    }
    panic("bad IQ class");
}

const IssueQueues::Queue &
IssueQueues::queueFor(IqClass c) const
{
    switch (c) {
      case IqClass::Int: return intQ;
      case IqClass::LdSt: return ldstQ;
      case IqClass::Fp: return fpQ;
    }
    panic("bad IQ class");
}

bool
IssueQueues::hasSpace(IqClass c) const
{
    switch (c) {
      case IqClass::Int: return intQ.size() < intCap;
      case IqClass::LdSt: return ldstQ.size() < ldstCap;
      case IqClass::Fp: return fpQ.size() < fpCap;
    }
    panic("bad IQ class");
}

void
IssueQueues::insert(DynInst *inst)
{
    IqClass c = iqClassFor(inst->op);
    if (!hasSpace(c))
        panic("IQ overflow");
    queueFor(c).push_back(entryFor(inst));
    ++threadOcc[inst->tid];
}

void
IssueQueues::pickReady(const RenameUnit &rename, unsigned int_fus,
                       unsigned ldst_fus, unsigned fp_fus,
                       std::vector<DynInst *> &out)
{
    struct ClassPick
    {
        IqClass c;
        unsigned limit;
    };
    const ClassPick picks[3] = {{IqClass::Int, int_fus},
                                {IqClass::LdSt, ldst_fus},
                                {IqClass::Fp, fp_fus}};

    for (const auto &pick : picks) {
        auto &q = queueFor(pick.c);
        unsigned taken = 0;
        // Queues are kept in dispatch (age) order; scan oldest first.
        std::size_t w = 0;
        for (std::size_t r = 0; r < q.size(); ++r) {
            const Entry e = q[r];
            if (taken < pick.limit &&
                rename.sourcesReady(e.physSrc1, e.physSrc2, e.fp)) {
                out.push_back(e.inst);
                --threadOcc[e.tid];
                ++taken;
            } else {
                q[w++] = e;
            }
        }
        q.resize(w);
    }
}

bool
IssueQueues::hasReady(const RenameUnit &rename) const
{
    for (const Queue *q : {&intQ, &ldstQ, &fpQ})
        for (const Entry &e : *q)
            if (rename.sourcesReady(e.physSrc1, e.physSrc2, e.fp))
                return true;
    return false;
}

void
IssueQueues::squash(ThreadID tid, InstSeqNum seq)
{
    auto drop = [this, tid, seq](const Entry &e) {
        if (e.tid != tid || e.inst->seq <= seq)
            return false;
        --threadOcc[tid];
        return true;
    };
    for (auto *q : {&intQ, &ldstQ, &fpQ})
        q->erase(std::remove_if(q->begin(), q->end(), drop), q->end());
}

unsigned
IssueQueues::occupancy(IqClass c) const
{
    return static_cast<unsigned>(queueFor(c).size());
}

unsigned
IssueQueues::totalOccupancy() const
{
    return static_cast<unsigned>(intQ.size() + ldstQ.size() +
                                 fpQ.size());
}

void
IssueQueues::clear()
{
    intQ.clear();
    ldstQ.clear();
    fpQ.clear();
    threadOcc.fill(0);
}

namespace
{

template <typename Queue>
void
saveQueue(CheckpointWriter &w, const Queue &q)
{
    w.u32(static_cast<std::uint32_t>(q.size()));
    for (const auto &e : q) {
        w.i16(e.inst->tid);
        w.u64(e.inst->seq);
    }
}

std::vector<DynInst *>
restoreQueue(CheckpointReader &r, unsigned cap, Rob &rob,
             const char *what)
{
    std::vector<DynInst *> q;
    std::uint32_t n =
        static_cast<std::uint32_t>(r.checkCount(r.u32(), 10, what));
    if (n > cap)
        r.fail(csprintf("%s queue holds %u entries but this "
                        "configuration caps it at %u",
                        what, n, cap));
    q.clear();
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
        q.push_back(inst);
    }
    return q;
}

} // namespace

void
IssueQueues::save(CheckpointWriter &w) const
{
    saveQueue(w, intQ);
    saveQueue(w, ldstQ);
    saveQueue(w, fpQ);
}

void
IssueQueues::restore(CheckpointReader &r, Rob &rob)
{
    clear();
    auto refill = [this](Queue &q, const std::vector<DynInst *> &insts) {
        for (DynInst *inst : insts) {
            q.push_back(entryFor(inst));
            ++threadOcc[inst->tid];
        }
    };
    refill(intQ, restoreQueue(r, intCap, rob, "int issue"));
    refill(ldstQ, restoreQueue(r, ldstCap, rob, "ld/st issue"));
    refill(fpQ, restoreQueue(r, fpCap, rob, "fp issue"));
}

} // namespace smt
