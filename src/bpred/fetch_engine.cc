#include "bpred/fetch_engine.hh"

#include "bpred/engine_registry.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace smt
{

const char *
engineName(EngineKind kind)
{
    return EngineRegistry::instance().descriptor(kind).name;
}

const std::string &
FetchEngine::checkpointTag() const
{
    return EngineRegistry::instance().descriptor(kindId).checkpointTag;
}

FetchEngine::FetchEngine(const EngineParams &p, EngineKind kind)
    : params(p), kindId(kind)
{
    for (unsigned t = 0; t < maxThreads; ++t) {
        path[t] = PathHistory(p.dolcDepth, p.dolcOlderBits,
                              p.dolcLastBits, p.dolcCurrentBits);
        commitPath[t] = path[t];
        ras[t] = ReturnAddressStack(p.rasEntries);
    }
}

void
FetchEngine::setThreadProgram(ThreadID tid, const StaticProgram *program)
{
    programs[tid] = program;
    formation[tid] = FormationState{};
    if (program != nullptr) {
        formation[tid].blockStart = program->entry();
        formation[tid].started = true;
    }
}

EngineCheckpoint
FetchEngine::makeCheckpoint(ThreadID tid, Addr start) const
{
    EngineCheckpoint c;
    c.blockStart = start;
    c.ghist = history[tid].snapshot();
    c.ras = ras[tid].snapshot();
    c.path = path[tid].snapshot();
    return c;
}

BlockPrediction
FetchEngine::sequentialBlock(ThreadID tid, Addr start, unsigned length)
{
    BlockPrediction b;
    b.start = start;
    b.lengthInsts = length;
    b.endsWithCti = false;
    b.predTaken = false;
    // A table miss is the least-confident prediction of all.
    b.lowConfidence = true;
    b.nextFetchPc = start + static_cast<Addr>(length) * instBytes;
    b.ckpt = makeCheckpoint(tid, start);
    ++engineStats.seqMissBlocks;
    return b;
}

void
FetchEngine::recover(ThreadID tid, const EngineCheckpoint &ckpt,
                     const StaticInst *offender, bool actual_taken,
                     Addr actual_target)
{
    (void)actual_target;
    ++engineStats.recoveries;
    history[tid].restore(ckpt.ghist);
    ras[tid].restore(ckpt.ras);
    path[tid].restore(ckpt.path);

    if (offender == nullptr || !offender->isControl())
        return;

    // Re-apply the offender's actual semantics on the repaired state.
    if (offender->isConditional()) {
        history[tid].shift(actual_taken);
    } else if (offender->isCall() && actual_taken) {
        ras[tid].push(offender->nextPc());
    } else if (offender->isReturn() && actual_taken) {
        ras[tid].pop();
    }
}

void
FetchEngine::reset()
{
    engineStats = EngineStats{};
    for (unsigned t = 0; t < maxThreads; ++t) {
        history[t].reset();
        ras[t].reset();
        path[t].reset();
        commitPath[t].reset();
        formation[t] = FormationState{};
        if (programs[t] != nullptr) {
            formation[t].blockStart = programs[t]->entry();
            formation[t].started = true;
        }
    }
}

void
FetchEngine::registerStats(StatsRegistry &reg) const
{
    reg.addCounter("engine.blockPredictions", "fetch blocks predicted",
                   &engineStats.blockPredictions);
    reg.addCounter("engine.tableHits", "BTB/FTB/stream table hits",
                   &engineStats.tableHits);
    reg.addCounter("engine.secondLevelHits", "stream L2 hits",
                   &engineStats.secondLevelHits);
    reg.addCounter("engine.seqMissBlocks",
                   "sequential fallback blocks on table miss",
                   &engineStats.seqMissBlocks);
    reg.addCounter("engine.condPredictions",
                   "conditional direction predictions",
                   &engineStats.condPredictions);
    reg.addCounter("engine.rasPushes", "return-address-stack pushes",
                   &engineStats.rasPushes);
    reg.addCounter("engine.rasPops", "return-address-stack pops",
                   &engineStats.rasPops);
    reg.addCounter("engine.recoveries", "squash recoveries",
                   &engineStats.recoveries);
    reg.addCounter("engine.streamsFormed",
                   "commit-side blocks/streams formed",
                   &engineStats.streamsFormed);
}

void
EngineCheckpoint::save(CheckpointWriter &w) const
{
    w.u64(blockStart);
    w.u64(ghist);
    w.u16(ras.tos);
    if (ras.entries != nullptr) {
        w.u32(static_cast<std::uint32_t>(ras.entries->size()));
        for (Addr a : *ras.entries)
            w.u64(a);
    } else {
        w.u32(0);
    }
    for (Addr a : path.ring)
        w.u64(a);
    w.u8(path.pos);
}

void
EngineCheckpoint::restore(CheckpointReader &r,
                          unsigned expected_ras_entries)
{
    blockStart = r.u64();
    ghist = r.u64();
    ras.tos = r.u16();
    std::uint32_t n =
        static_cast<std::uint32_t>(r.checkCount(r.u32(), 8, "RAS"));
    if (n > 0 && expected_ras_entries != 0 &&
        n != expected_ras_entries)
        r.fail(csprintf("RAS snapshot holds %u entries but this "
                        "configuration uses %u (configuration "
                        "mismatch)",
                        n, expected_ras_entries));
    if (n > 0) {
        if (ras.tos >= n)
            r.fail(csprintf("RAS snapshot top-of-stack %u out of "
                            "range [0, %u)",
                            ras.tos, n));
        std::vector<Addr> stack(n);
        for (auto &a : stack)
            a = r.u64();
        ras.entries = std::make_shared<const std::vector<Addr>>(
            std::move(stack));
    } else {
        if (ras.tos != 0)
            r.fail(csprintf("RAS snapshot with no entries but "
                            "top-of-stack %u",
                            ras.tos));
        ras.entries = nullptr;
    }
    for (Addr &a : path.ring)
        a = r.u64();
    path.pos = r.u8();
    if (path.pos >= PathHistory::maxDepth)
        r.fail(csprintf("path-history position %u out of range "
                        "[0, %u)",
                        path.pos, PathHistory::maxDepth));
}

void
BlockPrediction::save(CheckpointWriter &w) const
{
    w.u64(start);
    w.u32(lengthInsts);
    w.b(endsWithCti);
    w.u8(static_cast<std::uint8_t>(endType));
    w.b(predTaken);
    w.u64(predTarget);
    w.u64(nextFetchPc);
    w.b(lowConfidence);
    ckpt.save(w);
}

void
BlockPrediction::restore(CheckpointReader &r,
                         unsigned expected_ras_entries)
{
    start = r.u64();
    lengthInsts = r.u32();
    endsWithCti = r.b();
    endType = checkpointReadOpClass(r);
    predTaken = r.b();
    predTarget = r.u64();
    nextFetchPc = r.u64();
    lowConfidence = r.b();
    ckpt.restore(r, expected_ras_entries);
}

void
FetchEngine::save(CheckpointWriter &w) const
{
    w.u8(static_cast<std::uint8_t>(kind()));
    w.u64(engineStats.blockPredictions);
    w.u64(engineStats.tableHits);
    w.u64(engineStats.secondLevelHits);
    w.u64(engineStats.seqMissBlocks);
    w.u64(engineStats.condPredictions);
    w.u64(engineStats.rasPushes);
    w.u64(engineStats.rasPops);
    w.u64(engineStats.recoveries);
    w.u64(engineStats.streamsFormed);
    for (unsigned t = 0; t < maxThreads; ++t) {
        w.u64(history[t].snapshot());
        ras[t].save(w);
        PathHistory::Snapshot ps = path[t].snapshot();
        for (Addr a : ps.ring)
            w.u64(a);
        w.u8(ps.pos);
        PathHistory::Snapshot cs = commitPath[t].snapshot();
        for (Addr a : cs.ring)
            w.u64(a);
        w.u8(cs.pos);
        const FormationState &f = formation[t];
        w.u64(f.blockStart);
        w.b(f.started);
        for (Addr a : f.extraStarts)
            w.u64(a);
        w.u32(f.numExtras);
    }
}

void
FetchEngine::restore(CheckpointReader &r)
{
    std::uint8_t k = r.u8();
    if (k != static_cast<std::uint8_t>(kind()))
        r.fail(csprintf("fetch-engine kind %u does not match this "
                        "configuration's %u (configuration "
                        "mismatch)",
                        k, static_cast<unsigned>(kind())));
    engineStats.blockPredictions = r.u64();
    engineStats.tableHits = r.u64();
    engineStats.secondLevelHits = r.u64();
    engineStats.seqMissBlocks = r.u64();
    engineStats.condPredictions = r.u64();
    engineStats.rasPushes = r.u64();
    engineStats.rasPops = r.u64();
    engineStats.recoveries = r.u64();
    engineStats.streamsFormed = r.u64();
    auto read_path = [&r]() {
        PathHistory::Snapshot s;
        for (Addr &a : s.ring)
            a = r.u64();
        s.pos = r.u8();
        if (s.pos >= PathHistory::maxDepth)
            r.fail(csprintf("path-history position %u out of range "
                            "[0, %u)",
                            s.pos, PathHistory::maxDepth));
        return s;
    };
    for (unsigned t = 0; t < maxThreads; ++t) {
        history[t].restore(r.u64());
        ras[t].restore(r);
        path[t].restore(read_path());
        commitPath[t].restore(read_path());
        FormationState &f = formation[t];
        f.blockStart = r.u64();
        f.started = r.b();
        for (Addr &a : f.extraStarts)
            a = r.u64();
        f.numExtras = r.u32();
        if (f.numExtras > f.extraStarts.size())
            r.fail(csprintf("formation extra-start count %u exceeds "
                            "the %zu slots",
                            f.numExtras, f.extraStarts.size()));
    }
}

void
FetchEngine::capFormationStart(Addr &start, Addr cti_pc, unsigned cap)
{
    // Commit-side block/stream formation: segments longer than the
    // length field cannot be stored; skip whole cap-sized chunks so
    // the tail segment ending at the CTI remains encodable.
    const Addr cap_bytes = static_cast<Addr>(cap) * instBytes;
    while (cti_pc + instBytes - start > cap_bytes)
        start += cap_bytes;
}

// ---------------------------------------------------------------------
// gshare + BTB
// ---------------------------------------------------------------------

BtbFetchEngine::BtbFetchEngine(const EngineParams &p)
    : FetchEngine(p, EngineKind::GshareBtb),
      gshare(p.gshareEntries, p.gshareHistoryBits),
      btb(p.btbEntries, p.btbWays)
{
}

BlockPrediction
BtbFetchEngine::predictBlock(ThreadID tid, Addr pc)
{
    ++engineStats.blockPredictions;
    const StaticProgram *prog = programs[tid];

    // Predecode scan: find the first CTI after pc (the single
    // direction/target prediction this cycle applies to it).
    const StaticInst *cti = nullptr;
    unsigned len = 0;
    for (unsigned i = 0; i < params.btbScanCap; ++i) {
        const StaticInst *si =
            prog ? prog->lookup(pc + static_cast<Addr>(i) * instBytes)
                 : nullptr;
        if (si == nullptr) {
            // Unmapped (deep wrong path): fetch sequentially.
            if (i == 0)
                return sequentialBlock(tid, pc, params.missBlockInsts);
            return sequentialBlock(tid, pc, i);
        }
        ++len;
        if (si->isControl()) {
            cti = si;
            break;
        }
    }

    if (cti == nullptr)
        return sequentialBlock(tid, pc, len);

    BlockPrediction b;
    b.start = pc;
    b.lengthInsts = len;
    b.endsWithCti = true;
    b.endType = cti->op;
    b.ckpt = makeCheckpoint(tid, pc);

    const BtbEntry *entry = btb.lookup(cti->pc);
    if (entry != nullptr)
        ++engineStats.tableHits;

    switch (cti->op) {
      case OpClass::CondBranch: {
        ++engineStats.condPredictions;
        bool dir = gshare.predict(cti->pc, history[tid].value());
        b.lowConfidence = gshare.weak(cti->pc, history[tid].value());
        history[tid].shift(dir);
        if (dir && entry != nullptr) {
            b.predTaken = true;
            b.predTarget = entry->target;
        } else {
            // Not-taken prediction, or taken with no target available.
            b.predTaken = false;
        }
        break;
      }
      case OpClass::Return: {
        b.predTaken = true;
        b.predTarget = ras[tid].pop();
        ++engineStats.rasPops;
        break;
      }
      case OpClass::CallDirect: {
        if (entry != nullptr) {
            b.predTaken = true;
            b.predTarget = entry->target;
            ras[tid].push(cti->nextPc());
            ++engineStats.rasPushes;
        }
        break;
      }
      default: { // Jump, JumpIndirect
        if (entry != nullptr) {
            b.predTaken = true;
            b.predTarget = entry->target;
        }
        break;
      }
    }

    if (b.predTaken && b.predTarget == invalidAddr) {
        // Cold RAS/table: no usable target; predict fall-through.
        b.predTaken = false;
    }
    b.nextFetchPc = b.predTaken ? b.predTarget : b.fallThrough();
    return b;
}

void
BtbFetchEngine::commitCti(ThreadID tid, const StaticInst &si, bool taken,
                          Addr actual_target, bool was_block_end,
                          bool was_mispredicted,
                          std::uint64_t pred_ghist)
{
    (void)tid;
    (void)was_mispredicted;
    if (si.isConditional() && was_block_end)
        gshare.update(si.pc, pred_ghist, taken);
    // Classic allocation policy: install targets of taken CTIs.
    // Returns are covered by the RAS.
    if (taken && !si.isReturn())
        btb.update(si.pc, actual_target, si.op);
    if (taken)
        ++engineStats.streamsFormed;
}

void
BtbFetchEngine::reset()
{
    FetchEngine::reset();
    gshare.reset();
    btb.reset();
}

void
BtbFetchEngine::save(CheckpointWriter &w) const
{
    FetchEngine::save(w);
    gshare.save(w);
    btb.save(w);
}

void
BtbFetchEngine::restore(CheckpointReader &r)
{
    FetchEngine::restore(r);
    gshare.restore(r);
    btb.restore(r);
}

// ---------------------------------------------------------------------
// gskew + FTB
// ---------------------------------------------------------------------

FtbFetchEngine::FtbFetchEngine(const EngineParams &p)
    : FetchEngine(p, EngineKind::GskewFtb),
      gskew(p.gskewEntriesPerBank, p.gskewHistoryBits),
      ftb(p.ftbEntries, p.ftbWays, p.ftbMaxBlock)
{
}

BlockPrediction
FtbFetchEngine::predictBlock(ThreadID tid, Addr pc)
{
    ++engineStats.blockPredictions;

    const FtbEntry *entry = ftb.lookup(pc);
    if (entry == nullptr)
        return sequentialBlock(tid, pc, params.missBlockInsts);

    ++engineStats.tableHits;
    BlockPrediction b;
    b.start = pc;
    b.lengthInsts = entry->lengthInsts;
    b.endsWithCti = true;
    b.endType = entry->endType;
    b.ckpt = makeCheckpoint(tid, pc);

    switch (entry->endType) {
      case OpClass::CondBranch: {
        ++engineStats.condPredictions;
        bool dir = gskew.predict(entry->endPc(pc), history[tid].value());
        b.lowConfidence =
            gskew.weak(entry->endPc(pc), history[tid].value());
        history[tid].shift(dir);
        b.predTaken = dir;
        b.predTarget = dir ? entry->target : invalidAddr;
        break;
      }
      case OpClass::Return: {
        b.predTaken = true;
        b.predTarget = ras[tid].pop();
        ++engineStats.rasPops;
        break;
      }
      case OpClass::CallDirect: {
        b.predTaken = true;
        b.predTarget = entry->target;
        ras[tid].push(b.fallThrough());
        ++engineStats.rasPushes;
        break;
      }
      default: {
        b.predTaken = true;
        b.predTarget = entry->target;
        break;
      }
    }

    if (b.predTaken && b.predTarget == invalidAddr) {
        // Cold RAS/table: no usable target; predict fall-through.
        b.predTaken = false;
    }
    b.nextFetchPc = b.predTaken ? b.predTarget : b.fallThrough();
    return b;
}

void
FtbFetchEngine::commitCti(ThreadID tid, const StaticInst &si, bool taken,
                          Addr actual_target, bool was_block_end,
                          bool was_mispredicted,
                          std::uint64_t pred_ghist)
{
    (void)was_mispredicted;
    if (si.isConditional() && was_block_end)
        gskew.update(si.pc, pred_ghist, taken);

    FormationState &f = formation[tid];
    if (!f.started)
        return;

    if (taken) {
        capFormationStart(f.blockStart, si.pc, ftb.maxBlock());
        unsigned len = static_cast<unsigned>(
            (si.pc + instBytes - f.blockStart) / instBytes);
        ftb.update(f.blockStart, len, actual_target, si.op);
        ++engineStats.streamsFormed;
        f.blockStart = actual_target;
    } else {
        // Not taken. If the FTB's current block for this start ends
        // exactly here, fetch falls through to a new block; formation
        // follows. Otherwise the branch stays embedded and the block
        // keeps growing toward the next taken branch.
        capFormationStart(f.blockStart, si.pc, ftb.maxBlock());
        const FtbEntry *cur = ftb.lookup(f.blockStart);
        if (cur != nullptr && cur->endPc(f.blockStart) == si.pc)
            f.blockStart = si.nextPc();
    }
}

void
FtbFetchEngine::reset()
{
    FetchEngine::reset();
    gskew.reset();
    ftb.reset();
}

void
FtbFetchEngine::save(CheckpointWriter &w) const
{
    FetchEngine::save(w);
    gskew.save(w);
    ftb.save(w);
}

void
FtbFetchEngine::restore(CheckpointReader &r)
{
    FetchEngine::restore(r);
    gskew.restore(r);
    ftb.restore(r);
}

// ---------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------

StreamFetchEngine::StreamFetchEngine(const EngineParams &p)
    : FetchEngine(p, EngineKind::Stream),
      streams(p.streamL1Entries, p.streamL1Ways, p.streamL2Entries,
              p.streamL2Ways, p.streamMaxLength)
{
}

BlockPrediction
StreamFetchEngine::predictBlock(ThreadID tid, Addr pc)
{
    ++engineStats.blockPredictions;

    StreamPrediction sp = streams.predict(pc, path[tid]);
    if (!sp.hit)
        return sequentialBlock(tid, pc, params.missBlockInsts);

    ++engineStats.tableHits;
    if (sp.fromSecondLevel)
        ++engineStats.secondLevelHits;

    BlockPrediction b;
    b.start = pc;
    b.lengthInsts = sp.entry.lengthInsts;
    b.endsWithCti = true;
    b.endType = sp.entry.endType;
    b.ckpt = makeCheckpoint(tid, pc);

    // A stream by definition ends in a taken CTI.
    b.predTaken = true;
    switch (sp.entry.endType) {
      case OpClass::Return:
        b.predTarget = ras[tid].pop();
        ++engineStats.rasPops;
        break;
      case OpClass::CallDirect:
        b.predTarget = sp.entry.target;
        ras[tid].push(b.fallThrough());
        ++engineStats.rasPushes;
        break;
      default:
        b.predTarget = sp.entry.target;
        break;
    }
    if (sp.entry.endType == OpClass::CondBranch)
        ++engineStats.condPredictions;

    // Path history records the current stream's start.
    path[tid].push(pc);

    if (b.predTarget == invalidAddr) {
        // Cold RAS: no usable return target; fall through.
        b.predTaken = false;
        b.nextFetchPc = b.fallThrough();
    } else {
        b.nextFetchPc = b.predTarget;
    }
    return b;
}

void
StreamFetchEngine::commitCti(ThreadID tid, const StaticInst &si,
                             bool taken, Addr actual_target,
                             bool was_block_end, bool was_mispredicted,
                             std::uint64_t pred_ghist)
{
    (void)was_block_end;
    (void)pred_ghist;
    FormationState &f = formation[tid];
    if (!f.started)
        return;

    if (!taken) {
        // Not-taken branches live inside streams. If the fetch unit
        // mispredicted this one as a stream end, it restarted at the
        // fall-through address; remember that restart point so the
        // suffix stream gets its own table entry at closure.
        if (was_mispredicted && si.isConditional() &&
            f.numExtras < f.extraStarts.size()) {
            f.extraStarts[f.numExtras++] = si.nextPc();
        }
        return;
    }

    capFormationStart(f.blockStart, si.pc, streams.maxStream());
    unsigned len = static_cast<unsigned>(
        (si.pc + instBytes - f.blockStart) / instBytes);
    streams.update(f.blockStart, len, actual_target, si.op,
                   commitPath[tid]);

    // Train the suffix streams for mid-stream restart points.
    for (unsigned i = 0; i < f.numExtras; ++i) {
        Addr extra = f.extraStarts[i];
        if (extra > f.blockStart && extra <= si.pc) {
            unsigned extra_len = static_cast<unsigned>(
                (si.pc + instBytes - extra) / instBytes);
            streams.update(extra, extra_len, actual_target, si.op,
                           commitPath[tid]);
        }
    }
    f.numExtras = 0;

    commitPath[tid].push(f.blockStart);
    ++engineStats.streamsFormed;
    f.blockStart = actual_target;
}

void
StreamFetchEngine::recover(ThreadID tid, const EngineCheckpoint &ckpt,
                           const StaticInst *offender, bool actual_taken,
                           Addr actual_target)
{
    FetchEngine::recover(tid, ckpt, offender, actual_taken,
                         actual_target);
    // The current stream (starting at the block's start address) is
    // still the path's most recent element after repair.
    if (offender != nullptr && offender->isControl() &&
        ckpt.blockStart != invalidAddr) {
        path[tid].push(ckpt.blockStart);
    }
}

void
StreamFetchEngine::save(CheckpointWriter &w) const
{
    FetchEngine::save(w);
    streams.save(w);
}

void
StreamFetchEngine::restore(CheckpointReader &r)
{
    FetchEngine::restore(r);
    streams.restore(r);
}

void
StreamFetchEngine::reset()
{
    FetchEngine::reset();
    streams.reset();
}

// ---------------------------------------------------------------------
// Registry bindings
// ---------------------------------------------------------------------

std::unique_ptr<FetchEngine>
makeEngine(EngineKind kind, const EngineParams &params)
{
    const EngineDescriptor &d =
        EngineRegistry::instance().descriptor(kind);
    EngineParams p = params;
    if (d.preset != nullptr)
        d.preset(p);
    std::unique_ptr<FetchEngine> engine = d.factory(p);
    // Preset engines construct a base class; the registry id keeps
    // their own name and checkpoint tag.
    engine->kindId = kind;
    return engine;
}

namespace
{

using PSpec = EngineParamSpec;

std::vector<EngineParamSpec>
lineEngineParams()
{
    return {
        PSpec::uintSpec("gshareEntries", "gshare counter entries",
                        &EngineParams::gshareEntries, 1, 1u << 26),
        PSpec::uintSpec("gshareHistoryBits", "gshare history bits",
                        &EngineParams::gshareHistoryBits, 1, 64),
        PSpec::uintSpec("btbEntries", "BTB entries",
                        &EngineParams::btbEntries, 1, 1u << 24),
        PSpec::uintSpec("btbWays", "BTB associativity",
                        &EngineParams::btbWays, 1, 64),
        PSpec::uintSpec("btbScanCap",
                        "predecode CTI scan cap (insts)",
                        &EngineParams::btbScanCap, 1, 256),
        PSpec::uintSpec("rasEntries", "return-address-stack entries",
                        &EngineParams::rasEntries, 1, 4096),
        PSpec::uintSpec("missBlockInsts",
                        "sequential fallback block length",
                        &EngineParams::missBlockInsts, 1, 256),
    };
}

} // namespace

void
registerPaperEngines(EngineRegistry &reg)
{
    {
        EngineDescriptor d;
        d.kind = EngineKind::GshareBtb;
        d.name = "gshare+BTB";
        d.description = "conventional line-oriented fetch unit: "
                        "gshare direction predictor + BTB";
        d.checkpointTag = "engine.gshare";
        d.aliases = {"gshare"};
        d.factory = [](const EngineParams &p) {
            return std::unique_ptr<FetchEngine>(
                std::make_unique<BtbFetchEngine>(p));
        };
        d.params = lineEngineParams();
        reg.add(std::move(d));
    }
    {
        EngineDescriptor d;
        d.kind = EngineKind::GskewFtb;
        d.name = "gskew+FTB";
        d.description = "block-oriented fetch unit: gskew direction "
                        "predictor + fetch target buffer";
        d.checkpointTag = "engine.gskew";
        d.aliases = {"gskew"};
        d.factory = [](const EngineParams &p) {
            return std::unique_ptr<FetchEngine>(
                std::make_unique<FtbFetchEngine>(p));
        };
        d.params = {
            PSpec::uintSpec("gskewEntriesPerBank",
                            "gskew entries per bank",
                            &EngineParams::gskewEntriesPerBank, 1,
                            1u << 26),
            PSpec::uintSpec("gskewHistoryBits", "gskew history bits",
                            &EngineParams::gskewHistoryBits, 1, 64),
            PSpec::uintSpec("ftbEntries", "FTB entries",
                            &EngineParams::ftbEntries, 1, 1u << 24),
            PSpec::uintSpec("ftbWays", "FTB associativity",
                            &EngineParams::ftbWays, 1, 64),
            PSpec::uintSpec("ftbMaxBlock",
                            "max FTB block length (insts)",
                            &EngineParams::ftbMaxBlock, 1, 256),
            PSpec::uintSpec("rasEntries",
                            "return-address-stack entries",
                            &EngineParams::rasEntries, 1, 4096),
            PSpec::uintSpec("missBlockInsts",
                            "sequential fallback block length",
                            &EngineParams::missBlockInsts, 1, 256),
        };
        reg.add(std::move(d));
    }
    {
        EngineDescriptor d;
        d.kind = EngineKind::Stream;
        d.name = "stream";
        d.description = "stream fetch unit: cascaded stream "
                        "predictor naming whole instruction streams";
        d.checkpointTag = "engine.stream";
        d.factory = [](const EngineParams &p) {
            return std::unique_ptr<FetchEngine>(
                std::make_unique<StreamFetchEngine>(p));
        };
        d.params = {
            PSpec::uintSpec("streamL1Entries", "stream L1 entries",
                            &EngineParams::streamL1Entries, 1,
                            1u << 24),
            PSpec::uintSpec("streamL1Ways", "stream L1 associativity",
                            &EngineParams::streamL1Ways, 1, 64),
            PSpec::uintSpec("streamL2Entries", "stream L2 entries",
                            &EngineParams::streamL2Entries, 1,
                            1u << 24),
            PSpec::uintSpec("streamL2Ways", "stream L2 associativity",
                            &EngineParams::streamL2Ways, 1, 64),
            PSpec::uintSpec("streamMaxLength",
                            "max stream length (insts)",
                            &EngineParams::streamMaxLength, 1, 256),
            PSpec::uintSpec("dolcDepth", "DOLC path depth",
                            &EngineParams::dolcDepth, 1, 16),
            PSpec::uintSpec("dolcOlderBits", "DOLC older bits",
                            &EngineParams::dolcOlderBits, 1, 16),
            PSpec::uintSpec("dolcLastBits", "DOLC last bits",
                            &EngineParams::dolcLastBits, 1, 16),
            PSpec::uintSpec("dolcCurrentBits", "DOLC current bits",
                            &EngineParams::dolcCurrentBits, 1, 16),
            PSpec::uintSpec("rasEntries",
                            "return-address-stack entries",
                            &EngineParams::rasEntries, 1, 4096),
            PSpec::uintSpec("missBlockInsts",
                            "sequential fallback block length",
                            &EngineParams::missBlockInsts, 1, 256),
        };
        reg.add(std::move(d));
    }
}

void
registerPresetEngines(EngineRegistry &reg)
{
    {
        EngineDescriptor d;
        d.kind = EngineKind::PerfectBp;
        d.name = "perfect-bp";
        d.description = "oracle upper bound: correct-path blocks "
                        "come straight from the trace (gshare+BTB "
                        "base, its predictions unused)";
        d.checkpointTag = "engine.perfect-bp";
        d.aliases = {"perfectbp", "oracle-bp"};
        d.factory = [](const EngineParams &p) {
            return std::unique_ptr<FetchEngine>(
                std::make_unique<BtbFetchEngine>(p));
        };
        d.preset = [](EngineParams &p) { p.perfectBp = true; };
        d.params = lineEngineParams();
        reg.add(std::move(d));
    }
    {
        EngineDescriptor d;
        d.kind = EngineKind::PerfectL1i;
        d.name = "perfect-l1i";
        d.description = "oracle upper bound: every I-cache access "
                        "hits with no bank conflicts (gshare+BTB "
                        "base)";
        d.checkpointTag = "engine.perfect-l1i";
        d.aliases = {"perfecticache", "perfect-icache", "oracle-l1i"};
        d.factory = [](const EngineParams &p) {
            return std::unique_ptr<FetchEngine>(
                std::make_unique<BtbFetchEngine>(p));
        };
        d.preset = [](EngineParams &p) { p.perfectIcache = true; };
        d.params = lineEngineParams();
        reg.add(std::move(d));
    }
    {
        EngineDescriptor d;
        d.kind = EngineKind::Adaptive;
        d.name = "adaptive";
        d.description = "gshare+BTB base with an adaptive fetch "
                        "rate: low-confidence blocks fetch at most "
                        "adaptiveLowWidth instructions per cycle";
        d.checkpointTag = "engine.adaptive";
        d.aliases = {"adaptive-rate", "adaptivefetch"};
        d.factory = [](const EngineParams &p) {
            return std::unique_ptr<FetchEngine>(
                std::make_unique<BtbFetchEngine>(p));
        };
        d.preset = [](EngineParams &p) { p.adaptiveFetch = true; };
        d.params = [] {
            std::vector<EngineParamSpec> v = lineEngineParams();
            v.push_back(PSpec::uintSpec(
                "adaptiveLowWidth",
                "fetch chunk cap for low-confidence blocks",
                &EngineParams::adaptiveLowWidth, 1, 64));
            return v;
        }();
        reg.add(std::move(d));
    }
}

} // namespace smt
