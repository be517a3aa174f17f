#include "core/smt_core.hh"

#include "sim/checkpoint.hh"

#include "util/logging.hh"

namespace smt
{

namespace
{

/** Validate before any member is sized from the parameters. */
const CoreParams &
validated(const CoreParams &params)
{
    params.validate();
    return params;
}

} // namespace

SmtCore::SmtCore(const CoreParams &params)
    : coreParams(validated(params)), memHierarchy(params.memory),
      fetchEngine(makeEngine(params.engine, params.engineParams)),
      fetchPolicy(makePolicy(params.policy)),
      // A thread's in-flight instructions (fetched-but-undispatched
      // included) live in the fetch buffer, the decode and rename
      // latches, or count against robEntries — that sum bounds the
      // per-thread ring.
      rob(params.numThreads,
          params.robEntries + params.fetchBufferSize +
              2 * params.decodeWidth),
      rename(params.physIntRegs, params.physFpRegs, params.numThreads),
      iqs(params.intIqEntries, params.ldstIqEntries,
          params.fpIqEntries, params.physIntRegs, params.physFpRegs),
      exec(coreParams, memHierarchy),
      front(std::make_unique<FrontEnd>(coreParams, *fetchEngine,
                                       memHierarchy, *fetchPolicy, rob,
                                       simStats))
{
    fetchBuffer.capacity = coreParams.fetchBufferSize;
    registerStats();
}

void
SmtCore::registerStats()
{
    statsRegistry.addCounter("sim.cycles", "simulated cycles",
                             &simStats.cycles);
    statsRegistry.addCounter("sim.instsSquashed",
                             "instructions squashed",
                             &simStats.instsSquashed);
    statsRegistry.addFormula("sim.ipc",
                             "commit throughput (insts per cycle)",
                             [this]() { return simStats.ipc(); });
    statsRegistry.addFormula(
        "sim.ipfc", "fetch throughput (insts per fetch cycle)",
        [this]() { return simStats.ipfc(); });
    statsRegistry.addFormula(
        "sim.branchMispredictRate",
        "mispredicts per committed CTI",
        [this]() { return simStats.branchMispredictRate(); });
    // Cycle-skip telemetry: simulation-speed counters, not
    // architecture. Tests comparing skip-on vs skip-off registry
    // dumps exclude exactly the sim.cycleSkip.* prefix.
    statsRegistry.addCounter("sim.cycleSkip.cyclesSkipped",
                             "cycles fast-forwarded instead of ticked",
                             &simStats.cyclesSkipped);
    statsRegistry.addCounter("sim.cycleSkip.sleepEvents",
                             "quiescent spans fast-forwarded",
                             &simStats.sleepEvents);
    statsRegistry.addCounter("sim.cycleSkip.maxSkipSpan",
                             "longest single fast-forward jump",
                             &simStats.maxSkipSpan);
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        statsRegistry.addFormula(
            csprintf("sim.thread%u.ipc", t),
            csprintf("thread %u commit throughput", t),
            [this, tid]() { return simStats.threadIpc(tid); });
    }

    StatsRegistry &reg = statsRegistry;
    reg.addCounter("writeback.mispredictsResolved",
                   "mispredictions resolved at execute",
                   &simStats.mispredictsResolved);
    reg.addCounter("writeback.mispredCond",
                   "mispredicted conditional branches",
                   &simStats.mispredCond);
    reg.addCounter("writeback.mispredJump", "mispredicted direct jumps",
                   &simStats.mispredJump);
    reg.addCounter("writeback.mispredCall", "mispredicted direct calls",
                   &simStats.mispredCall);
    reg.addCounter("writeback.mispredReturn", "mispredicted returns",
                   &simStats.mispredReturn);
    reg.addCounter("writeback.mispredIndirect",
                   "mispredicted indirect jumps",
                   &simStats.mispredIndirect);

    reg.addCounter("commit.insts", "instructions committed",
                   &simStats.instsCommitted);
    reg.addCounter("commit.ctis", "committed control instructions",
                   &simStats.committedCtis);
    reg.addCounter("commit.cond", "committed conditional branches",
                   &simStats.committedCond);
    reg.addCounter("commit.taken", "committed taken CTIs",
                   &simStats.committedTaken);
    reg.addCounter("commit.loads", "committed loads",
                   &simStats.committedLoads);
    reg.addCounter("commit.stores", "committed stores",
                   &simStats.committedStores);
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        reg.addCounter(csprintf("commit.thread%u.insts", t),
                       csprintf("instructions committed by thread %u", t),
                       &simStats.threadCommitted[t]);
    }

    reg.addCounter("issue.insts", "instructions issued",
                   &simStats.issued);
    reg.addCounter("issue.longLoadEvents",
                   "long-latency-load policy activations",
                   &simStats.longLoadEvents);
    reg.addCounter("dispatch.insts", "instructions dispatched",
                   &simStats.dispatched);
    reg.addCounter("decode.bogusRedirects",
                   "bogus block ends repaired at decode",
                   &simStats.bogusRedirects);

    reg.addCounter("fetch.cycles", "cycles with >= 1 fetch request",
                   &simStats.fetchCycles);
    reg.addCounter("fetch.insts",
                   "instructions delivered (wrong path included)",
                   &simStats.instsFetched);
    reg.addCounter("fetch.wrongPathInsts",
                   "wrong-path instructions delivered",
                   &simStats.wrongPathFetched);
    reg.addCounter("fetch.bankConflicts",
                   "I-cache bank conflicts (wasted ports)",
                   &simStats.bankConflicts);
    reg.addCounter("fetch.icacheBlockEvents",
                   "I-cache misses that blocked a thread",
                   &simStats.icacheBlockEvents);
    reg.addCounter("fetch.bufferFullCycles",
                   "cycles fetch stalled on a full fetch buffer",
                   &simStats.fetchBufferFullCycles);
    reg.addHistogram("fetch.widthHist",
                     "instructions delivered per fetch cycle",
                     &simStats.fetchWidthHist);
    reg.addCounter("predict.blockPredictions",
                   "fetch-block predictions pushed into FTQs",
                   &simStats.blockPredictions);

    fetchEngine->registerStats(statsRegistry);
    memHierarchy.registerStats(statsRegistry, coreParams.numThreads);
}

void
SmtCore::setThread(ThreadID tid, TraceSource *trace,
                   const BenchmarkImage *image)
{
    if (static_cast<unsigned>(tid) >= coreParams.numThreads)
        fatal("thread id %d out of range", tid);
    front->setThread(tid, trace, image);
}

void
SmtCore::cycle()
{
    // Back-of-pipe first (see the stage declarations).
    executeStage();
    writebackStage();
    commitStage();
    issueStage();
    dispatchStage();
    renameStage();
    decodeStage();
    front->fetchStage(currentCycle, rotation, icounts.data(), fetchBuffer);
    front->predictionStage(currentCycle, rotation, icounts.data());
    ++currentCycle;
    rotation = nextThread(rotation);
    ++simStats.cycles;
}

bool
SmtCore::quiescentAt(Cycle now)
{
    const unsigned n = coreParams.numThreads;

    // Execute/writeback: a completion (stale squashed entries
    // included — writeback drains them) makes this cycle live.
    if (exec.pendingAt(now))
        return false;

    // Issue: a waiting instruction with ready sources would issue.
    // Three mask tests, the cheapest check; every check here is a
    // pure predicate, so their order cannot change the answer.
    if (iqs.hasReady())
        return false;

    for (unsigned t = 0; t < n; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);

        // Commit, decode or rename moves an instruction.
        if (canCommit(tid) || canDecode(tid) || canRename(tid))
            return false;

        // Dispatch: the thread's head instruction moves unless it
        // hits a structural hazard.
        if (renameCount[t] != 0 && !dispatchBlocked(tid, renameHead(tid)))
            return false;
    }

    // Predict: some thread is eligible for a block prediction.
    if (!front->predictQuiescent(now))
        return false;

    // Fetch: with room for a fetch group, some thread would access
    // the I-cache. (Buffer-full cycles only bump a counter, which
    // skipTo folds across the span.)
    return fetchBuffer.free() < coreParams.fetchWidth ||
           front->fetchQuiescent(now);
}

Cycle
SmtCore::nextWakeCycle(Cycle now, Cycle limit) const
{
    // The front-end deadline first: it bounds the wheel scan.
    Cycle wake = limit;
    if (Cycle d = front->nextDeadlineAfter(now); d > now && d < wake)
        wake = d;
    return exec.nextEventCycle(now, wake);
}

void
SmtCore::skipTo(Cycle target)
{
    const Cycle span = target - currentCycle;
    const unsigned n = coreParams.numThreads;

    currentCycle = target;
    simStats.cycles += span;

    // Fold the per-tick side effects of the otherwise-dead stages:
    // the rotation advances unconditionally, and a full fetch buffer
    // charges fetchBufferFullCycles.
    rotation = static_cast<unsigned>((rotation + span) % n);
    if (fetchBuffer.free() < coreParams.fetchWidth)
        simStats.fetchBufferFullCycles += span;

    simStats.cyclesSkipped += span;
    ++simStats.sleepEvents;
    if (span > simStats.maxSkipSpan)
        simStats.maxSkipSpan = span;
}

void
SmtCore::run(Cycle cycles)
{
    if (!coreParams.cycleSkip) {
        for (Cycle i = 0; i < cycles; ++i)
            cycle();
        return;
    }
    const Cycle end = currentCycle + cycles;
    while (currentCycle < end) {
        if (quiescentAt(currentCycle)) {
            // Nothing can happen until the next event; jump there
            // (clamped to the window so a run() boundary — e.g. the
            // warmup/measure split — lands on the same cycle as the
            // ticked loop would).
            skipTo(nextWakeCycle(currentCycle, end));
            continue;
        }
        cycle();
    }
}

void
SmtCore::resetStats()
{
    simStats.reset();
    memHierarchy.resetStats();
    fetchEngine->resetStats();
    statsRegistry.resetOwned();
}

namespace
{

/**
 * DynInst codec. The thread id is implied by the per-thread ROB list
 * being (de)serialized; the StaticInst pointer round-trips as the PC,
 * re-resolved against the thread's program on restore.
 */
void
saveInst(CheckpointWriter &w, const DynInst &inst)
{
    w.u64(inst.seq);
    w.u64(inst.pc);
    w.b(inst.si != nullptr);
    w.u8(static_cast<std::uint8_t>(inst.op));
    w.b(inst.wrongPath);
    w.b(inst.oracleTaken);
    w.u64(inst.oracleNext);
    w.u64(inst.memAddr);
    w.b(inst.predTaken);
    w.u64(inst.predNext);
    w.b(inst.wasBlockEnd);
    w.b(inst.bogusBlockEnd);
    w.b(inst.mispredicted);
    inst.ckpt->save(w);
    w.i16(inst.physSrc1);
    w.i16(inst.physSrc2);
    w.i16(inst.physDst);
    w.i16(inst.prevPhysDst);
    w.i16(inst.archDst);
    w.b(inst.dstIsFp);
    w.u8(static_cast<std::uint8_t>(inst.stage));
    w.b(inst.inIcount);
    w.u64(inst.dispatchStamp);
    w.u64(inst.fetchCycle);
    w.u64(inst.traceIndex);
}

/** invalidReg or [0, bound): anything else would index the rename
 *  scoreboards out of bounds once the instruction executes. */
void
checkRegIndex(CheckpointReader &r, RegIndex reg, unsigned bound,
              const char *what)
{
    if (reg != invalidReg &&
        (reg < 0 || static_cast<unsigned>(reg) >= bound))
        r.fail(csprintf("instruction %s register %d out of range "
                        "[0, %u) (corrupt payload)",
                        what, (int)reg, bound));
}

void
restoreInst(CheckpointReader &r, DynInst &inst, EngineCheckpoint &ckpt,
            const StaticProgram &program, const CoreParams &params)
{
    inst.seq = r.u64();
    inst.pc = r.u64();
    bool has_si = r.b();
    inst.si = program.lookup(inst.pc);
    inst.hasDst = inst.si != nullptr && inst.si->dst != invalidReg;
    if (has_si != (inst.si != nullptr))
        r.fail(csprintf("instruction at pc 0x%llx is%s mapped in the "
                        "rebuilt program but was%s at save time — "
                        "the checkpoint does not match this workload "
                        "image",
                        (unsigned long long)inst.pc,
                        inst.si != nullptr ? "" : " not",
                        has_si ? "" : " not"));
    inst.op = checkpointReadOpClass(r);
    inst.wrongPath = r.b();
    inst.oracleTaken = r.b();
    inst.oracleNext = r.u64();
    inst.memAddr = r.u64();
    inst.predTaken = r.b();
    inst.predNext = r.u64();
    inst.wasBlockEnd = r.b();
    inst.bogusBlockEnd = r.b();
    inst.mispredicted = r.b();
    ckpt.restore(r, params.engineParams.rasEntries);
    inst.ckpt = &ckpt;
    inst.physSrc1 = r.i16();
    inst.physSrc2 = r.i16();
    inst.physDst = r.i16();
    inst.prevPhysDst = r.i16();
    inst.archDst = r.i16();
    inst.dstIsFp = r.b();
    unsigned src_bound = usesFpRegs(inst.op) ? params.physFpRegs
                                             : params.physIntRegs;
    unsigned dst_bound =
        inst.dstIsFp ? params.physFpRegs : params.physIntRegs;
    unsigned arch_bound =
        inst.dstIsFp ? numArchFpRegs : numArchIntRegs;
    checkRegIndex(r, inst.physSrc1, src_bound, "source 1");
    checkRegIndex(r, inst.physSrc2, src_bound, "source 2");
    checkRegIndex(r, inst.physDst, dst_bound, "destination");
    checkRegIndex(r, inst.prevPhysDst, dst_bound,
                  "previous destination");
    checkRegIndex(r, inst.archDst, arch_bound,
                  "architectural destination");
    std::uint8_t stage = r.u8();
    if (stage > static_cast<std::uint8_t>(InstStage::Done))
        r.fail(csprintf("instruction stage byte holds %u (corrupt "
                        "payload)",
                        stage));
    inst.stage = static_cast<InstStage>(stage);
    inst.inIcount = r.b();
    inst.dispatchStamp = r.u64();
    inst.fetchCycle = r.u64();
    inst.traceIndex = r.u64();
}

/** Serialize one per-thread latch, ROB entries [first, first + n),
 *  as its list of sequence numbers. */
void
saveLatch(CheckpointWriter &w, const Rob &rob, ThreadID tid,
          std::size_t first, unsigned n)
{
    w.u32(n);
    for (unsigned i = 0; i < n; ++i)
        w.u64(rob.at(tid, first + i).seq);
}

/**
 * Read back one latch saved by saveLatch. Its entries must be exactly
 * the `n` ROB entries ending just before index `end`, in order: the
 * latches tile the youngest end of the ROB list.
 * @return n.
 */
unsigned
restoreLatch(CheckpointReader &r, const Rob &rob, ThreadID tid,
             std::size_t end, unsigned cap, const char *what)
{
    std::uint32_t n =
        static_cast<std::uint32_t>(r.checkCount(r.u32(), 8, what));
    if (n > cap)
        r.fail(csprintf("%s latch holds %u entries but this "
                        "configuration caps it at %u",
                        what, n, cap));
    if (n > end)
        r.fail(csprintf("%s latch of thread %d holds %u entries but "
                        "only %zu ROB entries precede it (corrupt "
                        "payload)",
                        what, (int)tid, n, end));
    const std::size_t first = end - n;
    for (std::uint32_t i = 0; i < n; ++i) {
        InstSeqNum seq = r.u64();
        const DynInst &inst = rob.at(tid, first + i);
        if (inst.seq != seq)
            r.fail(csprintf("%s latch entry %u names instruction "
                            "(thread %d, seq %llu) but its ROB "
                            "position holds seq %llu (corrupt "
                            "reference)",
                            what, i, (int)tid,
                            (unsigned long long)seq,
                            (unsigned long long)inst.seq));
    }
    return n;
}

} // namespace

void
SmtCore::saveState(CheckpointWriter &w) const
{
    const unsigned threads = coreParams.numThreads;
    const std::uint32_t sections_before = w.componentsWritten();

    w.begin("core.rob");
    w.u32(threads);
    for (unsigned t = 0; t < threads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        w.u64(rob.nextSeqOf(tid));
        w.u32(static_cast<std::uint32_t>(rob.size(tid)));
        for (std::size_t i = 0; i < rob.size(tid); ++i)
            saveInst(w, rob.at(tid, i));
    }
    w.end();

    w.begin("core.state");
    w.u64(currentCycle);
    w.u64(stampCounter);
    // The format keeps commit's and the front end's rotation pointers
    // as two fields; both are the cycle modulo the thread count.
    w.u32(rotation);
    w.u32(rotation);
    for (unsigned t = 0; t < maxThreads; ++t)
        w.u32(icounts[t]);
    for (unsigned t = 0; t < maxThreads; ++t)
        w.u32(robCount[t]);
    w.u32(fetchBuffer.capacity);
    for (unsigned t = 0; t < threads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        saveLatch(w, rob, tid, bufferStart(tid), fetchBuffer.count[t]);
        saveLatch(w, rob, tid, decodeStart(tid), decodeCount[t]);
        saveLatch(w, rob, tid, robCount[t], renameCount[t]);
    }
    w.end();

    w.begin("core.rename");
    rename.save(w);
    w.end();

    w.begin("core.iq");
    iqs.save(w);
    w.end();

    w.begin("core.exec");
    exec.save(w);
    w.end();

    w.begin("core.front");
    front->save(w);
    w.end();

    w.begin("core.stats");
    simStats.save(w);
    w.end();

    w.begin(fetchEngine->checkpointTag());
    fetchEngine->save(w);
    w.end();

    w.begin("mem");
    memHierarchy.save(w);
    w.end();

    if (w.componentsWritten() - sections_before != checkpointSections)
        panic("SmtCore::saveState wrote %u sections, expected %u "
              "(update SmtCore::checkpointSections)",
              w.componentsWritten() - sections_before,
              checkpointSections);
}

void
SmtCore::restoreState(CheckpointReader &r)
{
    const unsigned threads = coreParams.numThreads;

    r.begin("core.rob");
    std::uint32_t saved_threads = r.u32();
    if (saved_threads != threads)
        r.fail(csprintf("checkpoint covers %u threads but this "
                        "configuration uses %u (configuration "
                        "mismatch)",
                        saved_threads, threads));
    rob.reset();
    for (unsigned t = 0; t < threads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        const BenchmarkImage *image = front->threadImage(tid);
        if (image == nullptr)
            r.fail(csprintf("thread %u has no bound image — restore "
                            "requires setThread first",
                            t));
        InstSeqNum next_seq = r.u64();
        // The per-thread list holds every in-flight instruction,
        // fetched-but-undispatched ones included, so it can exceed
        // robEntries — but never the ring capacity the same
        // configuration computes.
        std::uint32_t n = static_cast<std::uint32_t>(
            r.checkCount(r.u32(), 64, "ROB instruction"));
        if (n > rob.capacity())
            r.fail(csprintf("thread %u ROB holds %u instructions but "
                            "this configuration caps it at %u",
                            t, n, rob.capacity()));
        InstSeqNum prev_seq = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            DynInst &inst = rob.create(tid);
            restoreInst(r, inst, rob.newCheckpoint(tid), image->program,
                        coreParams);
            inst.tid = tid;
            if (inst.seq <= prev_seq)
                r.fail(csprintf("thread %u ROB sequence numbers not "
                                "strictly increasing (corrupt "
                                "payload)",
                                t));
            prev_seq = inst.seq;
        }
        if (next_seq <= prev_seq)
            r.fail(csprintf("thread %u next sequence %llu not past "
                            "the youngest in-flight instruction",
                            t, (unsigned long long)next_seq));
        rob.setNextSeq(tid, next_seq);
    }
    r.end();

    r.begin("core.state");
    currentCycle = r.u64();
    stampCounter = r.u64();
    std::uint32_t commit_rotation = r.u32();
    std::uint32_t front_rotation = r.u32();
    rotation = static_cast<unsigned>(currentCycle % threads);
    if (commit_rotation != rotation || front_rotation != rotation)
        r.fail(csprintf("rotation pointers %u/%u do not match cycle "
                        "%llu over %u threads (corrupt payload)",
                        commit_rotation, front_rotation,
                        (unsigned long long)currentCycle, threads));
    for (unsigned t = 0; t < maxThreads; ++t)
        icounts[t] = r.u32();
    for (unsigned t = 0; t < maxThreads; ++t)
        robCount[t] = r.u32();
    std::uint32_t buffer_cap = r.u32();
    if (buffer_cap != fetchBuffer.capacity)
        r.fail(csprintf("fetch buffer capacity %u does not match "
                        "this configuration's %u",
                        buffer_cap, fetchBuffer.capacity));
    fetchBuffer.clear();
    for (unsigned t = 0; t < threads; ++t) {
        // Youngest first: the fetch buffer, then the decode latch,
        // then the rename latch.
        ThreadID tid = static_cast<ThreadID>(t);
        std::size_t end = rob.size(tid);
        fetchBuffer.count[t] = restoreLatch(
            r, rob, tid, end, fetchBuffer.capacity, "fetch buffer");
        fetchBuffer.total += fetchBuffer.count[t];
        end -= fetchBuffer.count[t];
        decodeCount[t] = restoreLatch(r, rob, tid, end,
                                      coreParams.decodeWidth, "decode");
        end -= decodeCount[t];
        renameCount[t] = restoreLatch(r, rob, tid, end,
                                      coreParams.decodeWidth, "rename");
    }
    if (fetchBuffer.total > fetchBuffer.capacity)
        r.fail(csprintf("fetch buffer holds %u instructions but is "
                        "capped at %u",
                        fetchBuffer.total,
                        fetchBuffer.capacity));
    if (std::string error = latchTilingError(); !error.empty())
        r.fail(error + " (corrupt payload)");
    // Per-cycle scratch is produced and consumed within one tick;
    // a checkpoint sits on a cycle boundary, so it starts empty.
    completionScratch.clear();
    issueScratch.clear();
    r.end();

    r.begin("core.rename");
    rename.restore(r);
    r.end();

    r.begin("core.iq");
    iqs.restore(r, rob, rename);
    r.end();

    r.begin("core.exec");
    exec.restore(r);
    r.end();

    r.begin("core.front");
    front->restore(r);
    r.end();

    r.begin("core.stats");
    simStats.restore(r);
    r.end();

    r.begin(fetchEngine->checkpointTag());
    fetchEngine->restore(r);
    r.end();

    r.begin("mem");
    memHierarchy.restore(r);
    r.end();

    checkIcountInvariant();
}

std::string
SmtCore::latchTilingError() const
{
    unsigned buffered = 0;
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        const std::size_t bounds[] = {
            robCount[t], decodeStart(tid), bufferStart(tid),
            bufferStart(tid) + fetchBuffer.count[t]};
        if (bounds[3] != rob.size(tid))
            return csprintf("thread %u latches end at ROB index %zu "
                            "but the list holds %zu",
                            t, bounds[3], rob.size(tid));
        for (std::size_t i = 0; i < rob.size(tid); ++i) {
            InstStage want = i < bounds[0]   ? InstStage::Dispatched
                             : i < bounds[1] ? InstStage::Renamed
                             : i < bounds[2] ? InstStage::Decoded
                                             : InstStage::Fetched;
            InstStage have = rob.at(tid, i).stage;
            if (want == InstStage::Dispatched ? have < want : have != want)
                return csprintf("thread %u ROB entry %zu is at stage "
                                "%u where its position says %u",
                                t, i, static_cast<unsigned>(have),
                                static_cast<unsigned>(want));
        }
        buffered += fetchBuffer.count[t];
    }
    if (buffered != fetchBuffer.total)
        return csprintf("fetch buffer total %u but its per-thread "
                        "counts sum to %u",
                        fetchBuffer.total, buffered);
    return "";
}

void
SmtCore::checkIcountInvariant() const
{
    // Every in-flight instruction lives in the ROB rings, and the
    // inIcount flag marks membership in the ICOUNT front section, so
    // an ROB walk recomputes the counters exactly.
    for (unsigned t = 0; t < coreParams.numThreads; ++t) {
        ThreadID tid = static_cast<ThreadID>(t);
        std::uint32_t n = 0;
        for (std::size_t i = 0; i < rob.size(tid); ++i)
            if (rob.at(tid, i).inIcount)
                ++n;
        if (n != icounts[t])
            panic("icount invariant broken: thread %u has %u counted "
                  "vs tracked %u",
                  t, n, icounts[t]);
    }
}

} // namespace smt
