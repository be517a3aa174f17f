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
    unsigned t = rotation;
    for (unsigned i = 0; i < coreParams.numThreads && budget > 0;
         ++i, t = nextThread(t)) {
        ThreadID tid = static_cast<ThreadID>(t);
        while (budget > 0 && canCommit(tid)) {
            commitInst(rob.head(tid));
            rob.popHead(tid);
            --budget;
        }
    }
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
    unsigned t = rotation;
    for (unsigned i = 0; i < coreParams.numThreads && budget > 0;
         ++i, t = nextThread(t)) {
        ThreadID tid = static_cast<ThreadID>(t);
        while (budget > 0 && renameCount[tid] != 0) {
            DynInst &inst = renameHead(tid);
            if (dispatchBlocked(tid, inst))
                break; // this thread stalls; others continue
            rename.rename(inst);
            inst.stage = InstStage::Dispatched;
            inst.dispatchStamp = ++stampCounter;
            iqs.insert(&inst, rename);
            ++robCount[tid];
            --renameCount[tid];
            ++simStats.dispatched;
            --budget;
        }
    }
}

void
SmtCore::renameStage()
{
    unsigned budget = coreParams.decodeWidth;
    unsigned t = rotation;
    for (unsigned i = 0; i < coreParams.numThreads && budget > 0;
         ++i, t = nextThread(t)) {
        ThreadID tid = static_cast<ThreadID>(t);
        while (budget > 0 && canRename(tid)) {
            rob.at(tid, decodeStart(tid)).stage = InstStage::Renamed;
            ++renameCount[tid];
            --decodeCount[tid];
            --budget;
        }
    }
}

void
SmtCore::decodeStage()
{
    unsigned budget = coreParams.decodeWidth;
    unsigned t = rotation;
    for (unsigned i = 0; i < coreParams.numThreads && budget > 0;
         ++i, t = nextThread(t)) {
        ThreadID tid = static_cast<ThreadID>(t);
        while (budget > 0 && canDecode(tid)) {
            DynInst &inst = rob.at(tid, bufferStart(tid));
            fetchBuffer.pop(tid);
            ++decodeCount[tid];
            inst.stage = InstStage::Decoded;
            --budget;
            if (inst.bogusBlockEnd && !inst.wrongPath) {
                // The predictor claimed this instruction ends a block
                // with a taken CTI, but decode sees a non-CTI: repair
                // here instead of waiting for execute.
                ++simStats.bogusRedirects;
                squashAfter(inst);
                break; // this thread's younger insts just vanished
            }
        }
    }
}

void
SmtCore::squashAfter(DynInst &offender)
{
    ThreadID tid = offender.tid;
    InstSeqNum seq = offender.seq;

    fetchEngine->recover(tid, *offender.ckpt, offender.si,
                         offender.oracleTaken,
                         offender.oracleTaken ? offender.oracleNext
                                              : invalidAddr);

    iqs.squash(tid, seq);

    // The youngest entries sit in the fetch buffer, then the decode
    // latch, then the rename latch; past those, dispatched ones.
    while (!rob.empty(tid) && rob.youngest(tid).seq > seq) {
        DynInst &young = rob.youngest(tid);
        if (young.inIcount)
            --icounts[tid];
        if (fetchBuffer.count[tid] != 0) {
            fetchBuffer.pop(tid);
        } else if (decodeCount[tid] != 0) {
            --decodeCount[tid];
        } else if (renameCount[tid] != 0) {
            --renameCount[tid];
        } else {
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
