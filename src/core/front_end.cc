#include "core/front_end.hh"

#include <algorithm>

#include "sim/checkpoint.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace smt
{

FrontEnd::FrontEnd(const CoreParams &params, FetchEngine &engine,
                   MemoryHierarchy &memory, FetchPolicy &policy,
                   Rob &rob, SimStats &stats)
    : params(params), engine(engine), memory(memory), policy(policy),
      rob(rob), stats(stats), threads(params.numThreads)
{
    for (auto &ts : threads)
        ts.ftq = FetchTargetQueue(params.ftqEntries);
}

void
FrontEnd::setThread(ThreadID tid, TraceSource *trace,
                    const BenchmarkImage *image)
{
    ThreadState &ts = threads[tid];
    ts.trace = trace;
    ts.image = image;
    ts.predPc = image->program.entry();
    ts.correctPath = true;
    ts.icacheBlockedUntil = 0;
    ts.predictStallUntil = 0;
    ts.active = true;
    ts.ftq.clear();
    engine.setThreadProgram(tid, &image->program);
}

void
FrontEnd::predictionStage(Cycle now, unsigned rotation,
                          const std::uint32_t *icounts)
{
    // Ranking has no side effects: skip it when no thread can use it.
    if (predictQuiescent(now))
        return;
    policy.order(rotation, icounts, params.numThreads, orderScratch);

    unsigned ports_used = 0;
    for (ThreadID tid : orderScratch) {
        if (ports_used >= params.fetchThreads)
            break;
        ThreadState &ts = threads[tid];
        if (!ts.active || ts.predictStallUntil > now ||
            ts.memStallUntil > now || ts.ftq.full())
            continue;
        // Perfect-BP oracle: the correct path comes straight from the
        // trace. Falls back to the engine off the correct path (a
        // FLUSH squash mid-repair) or on any trace misalignment.
        BlockPrediction block;
        if (params.engineParams.perfectBp && ts.correctPath &&
            ts.trace != nullptr &&
            ts.trace->peekAhead(ts.ftq.totalRemaining()).pc() ==
                ts.predPc) {
            block = oracleBlock(ts, tid);
        } else {
            block = engine.predictBlock(tid, ts.predPc);
        }
        ts.ftq.push(block);
        ts.predPc = block.nextFetchPc;
        ++stats.blockPredictions;
        ++ports_used;
    }
}

void
FrontEnd::fetchStage(Cycle now, unsigned rotation, std::uint32_t *icounts,
                     FetchBuffer &fetch_buffer)
{
    // Fetch is gated on room for a full fetch group ("if the fetch
    // buffer fills up, fetch is stalled until room is available").
    unsigned buffer_free = fetch_buffer.free();
    if (buffer_free < params.fetchWidth) {
        ++stats.fetchBufferFullCycles;
        return;
    }

    if (fetchQuiescent(now))
        return;
    unsigned remaining = params.fetchWidth;
    policy.order(rotation, icounts, params.numThreads, orderScratch);

    const unsigned line_bytes = memory.params().l1i.lineBytes;
    const Cycle l1i_hit = memory.params().l1i.hitLatency;

    // Perfect-I$ oracle: every access hits at the L1 hit latency with
    // no bank conflicts; the cache itself is never touched.
    const bool perfect_icache = params.engineParams.perfectIcache;

    unsigned threads_used = 0;
    unsigned delivered = 0;
    bool attempted = false;
    Addr used_lines[maxThreads];
    unsigned num_used_lines = 0;

    for (ThreadID tid : orderScratch) {
        if (threads_used >= params.fetchThreads || remaining == 0)
            break;
        ThreadState &ts = threads[tid];
        if (!ts.active || ts.ftq.empty() ||
            ts.icacheBlockedUntil > now || ts.memStallUntil > now)
            continue;

        Addr pc = ts.ftq.headFetchPc();
        Addr line = pc & ~static_cast<Addr>(line_bytes - 1);

        // Bank-conflict check against already-accessed lines.
        bool conflict = false;
        for (unsigned k = 0; !perfect_icache && k < num_used_lines;
             ++k) {
            if (memory.l1i().bankOf(used_lines[k]) ==
                memory.l1i().bankOf(line)) {
                conflict = true;
                break;
            }
        }
        if (conflict) {
            // The selected port is wasted this cycle.
            ++stats.bankConflicts;
            ++threads_used;
            attempted = true;
            continue;
        }

        attempted = true;
        Cycle lat = perfect_icache ? l1i_hit
                                   : memory.icacheAccess(tid, line, now);
        if (lat > l1i_hit) {
            // Miss: the fill has started; the thread blocks.
            ts.icacheBlockedUntil = now + lat;
            ++stats.icacheBlockEvents;
            ++threads_used;
            continue;
        }
        used_lines[num_used_lines++] = line;
        ++threads_used;

        unsigned max_in_line = static_cast<unsigned>(
            (line + line_bytes - pc) / instBytes);
        unsigned span = max_in_line;

        // Wide single-thread fetch may continue into the next
        // sequential line: a fetch block is contiguous, so the second
        // access is just the adjacent bank — no merge network needed.
        // This is exactly the low-complexity wide fetch the 1.16
        // policy relies on. It requires a block-oriented front-end
        // (FTB/stream FTQ entries name the whole span); the
        // line-oriented gshare+BTB unit reads one line per cycle.
        // With two threads the port pair is already spent.
        const unsigned line_insts =
            static_cast<unsigned>(line_bytes / instBytes);
        if (params.fetchThreads == 1 &&
            params.fetchWidth >= line_insts &&
            engine.blockOriented() && span < remaining &&
            ts.ftq.headRemaining() > span) {
            Addr line2 = line + line_bytes;
            Cycle lat2 = perfect_icache
                             ? l1i_hit
                             : memory.icacheAccess(tid, line2, now);
            if (lat2 <= l1i_hit) {
                span += line_insts;
            } else {
                // Second line missing: deliver the first part now;
                // the fill proceeds in the background.
                ++stats.icacheBlockEvents;
                ts.icacheBlockedUntil = now + lat2;
            }
        }

        unsigned chunk =
            std::min({remaining, ts.ftq.headRemaining(), span});

        // Adaptive fetch rate: throttle low-confidence blocks so a
        // likely-wrong path does not flood the shared buffer.
        if (params.engineParams.adaptiveFetch &&
            ts.ftq.head().lowConfidence) {
            chunk =
                std::min(chunk, params.engineParams.adaptiveLowWidth);
        }

        // The chunk's instructions share one checkpoint slot holding
        // the head block's engine state. consume() may pop the head,
        // so it runs after the loop.
        const BlockPrediction &block = ts.ftq.head();
        EngineCheckpoint &ckpt = rob.newCheckpoint(tid);
        ckpt = block.ckpt;
        unsigned offset = ts.ftq.headOffset();
        for (unsigned k = 0; k < chunk; ++k) {
            bool is_end = offset + k + 1 == block.lengthInsts;
            DynInst &inst =
                buildInst(ts, tid, pc + static_cast<Addr>(k) * instBytes,
                          block, ckpt, is_end, now);
            inst.inIcount = true;
            ++icounts[tid];
            fetch_buffer.push(tid);
        }
        ts.ftq.consume(chunk);
        remaining -= chunk;
        delivered += chunk;
    }

    if (attempted) {
        ++stats.fetchCycles;
        stats.instsFetched += delivered;
        stats.fetchWidthHist.sample(delivered);
    }
}

BlockPrediction
FrontEnd::oracleBlock(ThreadState &ts, ThreadID tid)
{
    // The first unqueued correct-path instruction is totalRemaining()
    // records past the fetch stage's trace position.
    std::uint64_t offset = ts.ftq.totalRemaining();
    BlockPrediction b;
    b.start = ts.predPc;
    b.ckpt = engine.makeCheckpoint(tid, b.start);
    // An oracle block runs through not-taken CTIs (their fall-through
    // is sequential) and ends at the first taken CTI or the cap —
    // maximal blocks, every prediction in them the actual outcome.
    const unsigned cap = params.engineParams.missBlockInsts;
    for (unsigned i = 0; i < cap; ++i) {
        const TraceRecord &rec = ts.trace->peekAhead(offset + i);
        ++b.lengthInsts;
        b.nextFetchPc = rec.nextPc;
        if (rec.si->isControl() && rec.taken) {
            b.endsWithCti = true;
            b.endType = rec.si->op;
            b.predTaken = true;
            b.predTarget = rec.nextPc;
            break;
        }
    }
    return b;
}

DynInst &
FrontEnd::buildInst(ThreadState &ts, ThreadID tid, Addr pc,
                    const BlockPrediction &block,
                    const EngineCheckpoint &ckpt, bool is_end, Cycle now)
{
    DynInst &inst = rob.create(tid);
    inst.pc = pc;
    inst.fetchCycle = now;
    inst.stage = InstStage::Fetched;

    const StaticInst *si = ts.image->program.lookup(pc);
    inst.si = si;
    inst.op = si != nullptr ? si->op : OpClass::IntAlu;
    inst.hasDst = si != nullptr && si->dst != invalidReg;

    // Every instruction carries its block's checkpoint: CTIs need it
    // for mispredict repair, and the long-latency-load FLUSH policy
    // may squash from any instruction.
    inst.ckpt = &ckpt;
    if (is_end) {
        inst.wasBlockEnd = true;
        inst.predTaken = block.predTaken;
        inst.predNext = block.nextFetchPc;
        if (block.endsWithCti &&
            (si == nullptr || !si->isControl())) {
            inst.bogusBlockEnd = true;
        }
    } else {
        inst.predTaken = false;
        inst.predNext = pc + instBytes;
    }

    if (ts.correctPath) {
        if (si == nullptr)
            panic("correct-path fetch of unmapped pc 0x%llx",
                  (unsigned long long)pc);
        if (ts.trace->peekPc() != pc)
            panic("trace misalignment: fetch 0x%llx vs trace 0x%llx",
                  (unsigned long long)pc,
                  (unsigned long long)ts.trace->peekPc());
        inst.traceIndex = ts.trace->position();
        const TraceRecord &rec = ts.trace->next();
        inst.oracleTaken = rec.taken;
        inst.oracleNext = rec.nextPc;
        inst.memAddr = rec.memAddr;
        if (inst.predNext != inst.oracleNext) {
            // Divergence: everything fetched after this instruction
            // is wrong path until the squash repairs the thread.
            inst.mispredicted = true;
            ts.correctPath = false;
        }
    } else {
        inst.wrongPath = true;
        ++stats.wrongPathFetched;
        inst.oracleTaken = inst.predTaken;
        inst.oracleNext = inst.predNext;
        if (inst.isMemory())
            inst.memAddr = wrongPathAddr(*ts.image, pc, inst.seq);
    }

    return inst;
}

Addr
FrontEnd::wrongPathAddr(const BenchmarkImage &image, Addr pc,
                        InstSeqNum seq)
{
    // Wrong paths run the same code regions as the correct path, so
    // their loads overwhelmingly touch the same hot data (stack,
    // current buffers). Keep them inside the hot subset: they warm
    // rather than thrash the thread's own working set.
    std::uint64_t h = mix64(pc ^ (seq * 0x9e3779b97f4a7c15ULL));
    Addr hot = static_cast<Addr>(image.profile.hotKB) * 1024;
    Addr span = (h & 0xff) < 230 ? 8192 : hot;
    if (span < 64)
        span = 64;
    if (span > image.dataBytes - 8)
        span = image.dataBytes - 8;
    return (image.dataBase + ((h >> 8) % span)) & ~Addr(7);
}

void
FrontEnd::redirect(ThreadID tid, Addr pc, Cycle now)
{
    ThreadState &ts = threads[tid];
    ts.ftq.clear();
    ts.predPc = pc;
    ts.correctPath = true;
    ts.icacheBlockedUntil = 0;
    ts.memStallUntil = 0;
    ts.predictStallUntil = now + 1;
}

void
FrontEnd::stallThread(ThreadID tid, Cycle until)
{
    threads[tid].memStallUntil = until;
}

void
FrontEnd::save(CheckpointWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(threads.size()));
    for (const ThreadState &ts : threads) {
        w.u64(ts.predPc);
        w.b(ts.correctPath);
        w.u64(ts.icacheBlockedUntil);
        w.u64(ts.predictStallUntil);
        w.u64(ts.memStallUntil);
        w.b(ts.active);
        w.u32(ts.ftq.headOffset());
        w.u32(static_cast<std::uint32_t>(ts.ftq.size()));
        for (std::size_t i = 0; i < ts.ftq.size(); ++i)
            ts.ftq.blockAt(i).save(w);
    }
}

void
FrontEnd::restore(CheckpointReader &r)
{
    std::uint32_t n = r.u32();
    if (n != threads.size())
        r.fail(csprintf("front-end covers %u threads but this "
                        "configuration uses %zu",
                        n, threads.size()));
    for (ThreadState &ts : threads) {
        ts.predPc = r.u64();
        ts.correctPath = r.b();
        ts.icacheBlockedUntil = r.u64();
        ts.predictStallUntil = r.u64();
        ts.memStallUntil = r.u64();
        ts.active = r.b();
        std::uint32_t head_offset = r.u32();
        std::uint32_t blocks = r.u32();
        if (blocks > ts.ftq.capacity())
            r.fail(csprintf("FTQ holds %u blocks but this "
                            "configuration caps it at %u",
                            blocks, ts.ftq.capacity()));
        ts.ftq.clear();
        for (std::uint32_t i = 0; i < blocks; ++i) {
            BlockPrediction block;
            block.restore(r, params.engineParams.rasEntries);
            if (block.lengthInsts == 0)
                r.fail("FTQ block with zero length (corrupt "
                       "payload)");
            ts.ftq.push(block);
        }
        if (blocks == 0 ? head_offset != 0
                        : head_offset >=
                              ts.ftq.head().lengthInsts)
            r.fail(csprintf("FTQ head offset %u out of range",
                            head_offset));
        ts.ftq.setHeadOffset(head_offset);
    }
}

void
FrontEnd::reset()
{
    for (auto &ts : threads) {
        ts.ftq.clear();
        ts.correctPath = true;
        ts.icacheBlockedUntil = 0;
        ts.predictStallUntil = 0;
        if (ts.image != nullptr)
            ts.predPc = ts.image->program.entry();
    }
}

} // namespace smt
