/**
 * @file
 * The back-end pipeline stages of SmtCore, in tick order (execute,
 * writeback, commit, issue, dispatch, rename, decode), and the squash
 * that writeback, issue and decode share. SmtCore::cycle() calls them
 * back-of-pipe first, then the FrontEnd's fetch and predict stages.
 */

#include <array>
#include <tuple>

#include "core/smt_core.hh"
#include "util/logging.hh"

namespace smt
{

void
SmtCore::executeStage()
{
    exec.completionsAt(currentCycle, completionScratch);
}

void
SmtCore::writebackStage()
{
    for (const auto &[tid, seq] : completionScratch) {
        DynInst *inst = rob.find(tid, seq);
        if (inst == nullptr || inst->stage != InstStage::Issued)
            continue; // squashed since issue
        inst->stage = InstStage::Done;
        iqs.markReady(rename, inst->physDst, inst->dstIsFp);
        if (inst->resolvesAtExecute()) {
            ++simStats.mispredictsResolved;
            switch (inst->op) {
                case OpClass::CondBranch:
                    ++simStats.mispredCond;
                    break;
                case OpClass::Jump:
                    ++simStats.mispredJump;
                    break;
                case OpClass::CallDirect:
                    ++simStats.mispredCall;
                    break;
                case OpClass::Return:
                    ++simStats.mispredReturn;
                    break;
                case OpClass::JumpIndirect:
                    ++simStats.mispredIndirect;
                    break;
                default:
                    break;
            }
            squashAfter(*inst);
        }
    }
}

void
SmtCore::commitStage()
{
    unsigned budget = coreParams.commitWidth;
    unsigned n = coreParams.numThreads;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        ThreadID tid = static_cast<ThreadID>((commitRotate + i) % n);
        while (budget > 0 && canCommit(tid)) {
            commitInst(rob.head(tid));
            rob.popHead(tid);
            --budget;
        }
    }
    commitRotate = (commitRotate + 1) % n;
}

void
SmtCore::commitInst(DynInst &inst)
{
    if (inst.wrongPath)
        panic("wrong-path instruction reached commit (tid %d seq %llu)",
              inst.tid, (unsigned long long)inst.seq);

    if (inst.si != nullptr && inst.si->isControl()) {
        ++simStats.committedCtis;
        if (inst.si->isConditional())
            ++simStats.committedCond;
        if (inst.oracleTaken)
            ++simStats.committedTaken;
        fetchEngine->commitCti(inst.tid, *inst.si, inst.oracleTaken,
                               inst.oracleNext, inst.wasBlockEnd,
                               inst.mispredicted, inst.ckpt->ghist);
    }
    if (inst.isLoad())
        ++simStats.committedLoads;
    if (inst.isStore()) {
        ++simStats.committedStores;
        // Store data is written back at commit; the write never
        // blocks retirement (post-commit store buffer).
        memHierarchy.dcacheAccess(inst.tid, inst.memAddr, true,
                                  currentCycle);
    }

    rename.commit(inst);
    --robCount[inst.tid];
    ++simStats.instsCommitted;
    ++simStats.threadCommitted[inst.tid];

    if (commitHook)
        commitHook(inst);
}

void
SmtCore::issueStage()
{
    issueScratch.clear();
    iqs.pickReady(coreParams.intFUs, coreParams.ldstFUs,
                  coreParams.fpFUs, issueScratch);

    // Long-latency loads found this cycle: (tid, seq, data-ready).
    std::array<std::tuple<ThreadID, InstSeqNum, Cycle>, 8> long_loads;
    unsigned num_long = 0;

    for (DynInst *inst : issueScratch) {
        if (inst->inIcount) {
            --icounts[inst->tid];
            inst->inIcount = false;
        }
        Cycle latency = exec.issue(*inst, currentCycle);
        ++simStats.issued;

        if (coreParams.longLoadPolicy != LongLoadPolicy::None &&
            inst->isLoad() && !inst->wrongPath &&
            latency > coreParams.longLoadThreshold &&
            num_long < long_loads.size()) {
            long_loads[num_long++] = {inst->tid, inst->seq,
                                      currentCycle + latency};
        }
    }

    // Apply the policy after the issue loop: a FLUSH squash deletes
    // younger instructions that may still sit in issueScratch.
    for (unsigned i = 0; i < num_long; ++i) {
        auto [tid, seq, ready_at] = long_loads[i];
        DynInst *load = rob.find(tid, seq);
        if (load == nullptr)
            continue; // flushed by an earlier long load
        ++simStats.longLoadEvents;
        if (coreParams.longLoadPolicy == LongLoadPolicy::Flush)
            squashAfter(*load);
        front->stallThread(tid, ready_at);
    }
}

void
SmtCore::dispatchStage()
{
    // Per-thread in-order dispatch sharing the stage width: a thread
    // whose head instruction hits a structural hazard stalls only
    // itself. The shared hazards (IQ, ROB, registers) are what let one
    // clogged thread strangle the machine, per Tullsen & Brown.
    unsigned budget = coreParams.decodeWidth;
    unsigned n = coreParams.numThreads;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        ThreadID tid = static_cast<ThreadID>((frontRotate + i) % n);
        auto &q = renameQ[tid];
        while (budget > 0 && !q.empty()) {
            DynInst *inst = q.front();
            if (dispatchBlocked(tid, *inst))
                break; // this thread stalls; others continue
            rename.rename(*inst);
            inst->stage = InstStage::Dispatched;
            inst->dispatchStamp = ++stampCounter;
            iqs.insert(inst, rename);
            ++robCount[tid];
            ++simStats.dispatched;
            q.pop_front();
            --budget;
        }
    }
}

void
SmtCore::renameStage()
{
    unsigned budget = coreParams.decodeWidth;
    unsigned n = coreParams.numThreads;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        ThreadID tid = static_cast<ThreadID>((frontRotate + i) % n);
        while (budget > 0 && canRename(tid)) {
            DynInst *inst = decodeQ[tid].front();
            decodeQ[tid].pop_front();
            inst->stage = InstStage::Renamed;
            renameQ[tid].push_back(inst);
            --budget;
        }
    }
}

void
SmtCore::decodeStage()
{
    unsigned budget = coreParams.decodeWidth;
    unsigned n = coreParams.numThreads;
    for (unsigned i = 0; i < n && budget > 0; ++i) {
        ThreadID tid = static_cast<ThreadID>((frontRotate + i) % n);
        while (budget > 0 && canDecode(tid)) {
            DynInst *inst = fetchBuffer.front(tid);
            fetchBuffer.popFront(tid);
            inst->stage = InstStage::Decoded;
            decodeQ[tid].push_back(inst);
            --budget;
            if (inst->bogusBlockEnd && !inst->wrongPath) {
                // The predictor claimed this instruction ends a block
                // with a taken CTI, but decode sees a non-CTI: repair
                // here instead of waiting for execute.
                ++simStats.bogusRedirects;
                squashAfter(*inst);
                break; // this thread's younger insts just vanished
            }
        }
    }
    frontRotate = (frontRotate + 1) % n;
}

namespace
{

void
removeYounger(RingBuffer<DynInst *> &q, InstSeqNum seq)
{
    // The latch queues are per-thread and age-ordered, so the younger
    // instructions are exactly a suffix.
    while (!q.empty() && q.back()->seq > seq)
        q.pop_back();
}

} // namespace

void
SmtCore::squashAfter(DynInst &offender)
{
    ThreadID tid = offender.tid;
    InstSeqNum seq = offender.seq;

    fetchEngine->recover(tid, *offender.ckpt, offender.si,
                         offender.oracleTaken,
                         offender.oracleTaken ? offender.oracleNext
                                              : invalidAddr);

    fetchBuffer.removeYounger(tid, seq);
    removeYounger(decodeQ[tid], seq);
    removeYounger(renameQ[tid], seq);
    iqs.squash(tid, seq);

    while (!rob.empty(tid) && rob.youngest(tid).seq > seq) {
        DynInst &young = rob.youngest(tid);
        if (young.inIcount)
            --icounts[tid];
        if (young.stage == InstStage::Dispatched ||
            young.stage == InstStage::Issued ||
            young.stage == InstStage::Done) {
            rename.rollback(young);
            --robCount[tid];
        }
        ++simStats.instsSquashed;
        rob.popYoungest(tid);
    }
    rob.releaseCheckpointsAfter(tid, offender.ckpt);

    // Squashed correct-path instructions already consumed the trace;
    // rewind so fetch re-delivers from just after the offender. For
    // mispredict/bogus squashes everything younger was wrong path and
    // this is a no-op.
    front->rewindTrace(tid, offender.traceIndex + 1);
    front->redirect(tid, offender.oracleNext, currentCycle);
}

} // namespace smt
