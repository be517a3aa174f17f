#include "layers.hh"

#include <stdexcept>

#include "bpred/fetch_engine.hh"
#include "mem/hierarchy.hh"
#include "tracer.hh"

namespace perfbench
{

TimedTraceSource::TimedTraceSource(smt::TraceSource &inner,
                                   std::size_t capture_limit)
    : smt::TraceSource(inner.image()), inner(inner),
      captureLimit(capture_limit)
{
    capture.reserve(capture_limit);
}

void
TimedTraceSource::save(smt::CheckpointWriter &) const
{
    throw std::logic_error("TimedTraceSource cannot be checkpointed");
}

void
TimedTraceSource::restore(smt::CheckpointReader &)
{
    throw std::logic_error("TimedTraceSource cannot be checkpointed");
}

smt::TraceRecord
TimedTraceSource::generate()
{
    std::int64_t t0 = nowNs();
    smt::TraceRecord rec = inner.next();
    ns += nowNs() - t0;
    ++count;
    if (capture.size() < captureLimit)
        capture.push_back(rec);
    return rec;
}

ReplayTiming
replayPredictor(const smt::CoreParams &core,
                const std::vector<const smt::StaticProgram *> &programs,
                const std::vector<std::vector<smt::TraceRecord>> &paths)
{
    auto engine = smt::makeEngine(core.engine, core.engineParams);
    for (std::size_t t = 0; t < programs.size(); ++t)
        engine->setThreadProgram(static_cast<smt::ThreadID>(t),
                                 programs[t]);

    ReplayTiming timing;
    std::vector<std::size_t> pos(paths.size(), 0);
    std::int64_t t0 = nowNs();
    for (bool progress = true; progress;) {
        progress = false;
        for (std::size_t t = 0; t < paths.size(); ++t) {
            const auto &path = paths[t];
            std::size_t &i = pos[t];
            if (i >= path.size())
                continue;
            progress = true;
            const auto tid = static_cast<smt::ThreadID>(t);
            smt::BlockPrediction bp =
                engine->predictBlock(tid, path[i].pc());
            ++timing.calls;
            const unsigned length = bp.lengthInsts ? bp.lengthInsts : 1;
            for (unsigned k = 1; k <= length && i < path.size(); ++k) {
                const smt::TraceRecord &r = path[i++];
                if (!r.si->isControl())
                    continue;
                const bool block_end = k == length && bp.endsWithCti;
                const bool mispredicted =
                    block_end ? (bp.predTaken != r.taken ||
                                 (r.taken && bp.predTarget != r.nextPc))
                              : r.taken;
                if (mispredicted)
                    engine->recover(tid, bp.ckpt, r.si, r.taken,
                                    r.nextPc);
                engine->commitCti(tid, *r.si, r.taken, r.nextPc,
                                  block_end, mispredicted,
                                  bp.ckpt.ghist);
                if (mispredicted || r.taken)
                    break;
            }
        }
    }
    timing.ns = nowNs() - t0;
    return timing;
}

namespace
{

struct Access
{
    smt::ThreadID tid;
    smt::Addr addr;
    bool write;
};

/** Round-robin interleave of per-thread access lists. */
std::vector<Access>
interleave(const std::vector<std::vector<Access>> &per_thread)
{
    std::vector<Access> out;
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (const auto &list : per_thread) {
            if (i < list.size()) {
                out.push_back(list[i]);
                any = true;
            }
        }
        if (!any)
            return out;
    }
}

} // namespace

MemReplay
replayMemory(const smt::CoreParams &core,
             const std::vector<std::vector<smt::TraceRecord>> &paths)
{
    const smt::MemoryParams &mp = core.memory;
    const smt::Addr line_mask =
        ~static_cast<smt::Addr>(mp.l1i.lineBytes - 1);

    std::vector<std::vector<Access>> lines(paths.size());
    std::vector<std::vector<Access>> data(paths.size());
    for (std::size_t t = 0; t < paths.size(); ++t) {
        const auto tid = static_cast<smt::ThreadID>(t);
        smt::Addr last_line = smt::invalidAddr;
        for (const smt::TraceRecord &r : paths[t]) {
            smt::Addr line = r.pc() & line_mask;
            if (line != last_line)
                lines[t].push_back(Access{tid, line, false});
            last_line = line;
            if (r.si->isMemory())
                data[t].push_back(
                    Access{tid, r.memAddr, r.si->isStore()});
        }
    }
    const std::vector<Access> istream = interleave(lines);
    const std::vector<Access> dstream = interleave(data);

    smt::MemoryHierarchy mem(mp);
    smt::Tlb itlb("ITLB", mp.itlbEntries, mp.pageBytes,
                  mp.tlbMissPenalty);
    smt::Tlb dtlb("DTLB", mp.dtlbEntries, mp.pageBytes,
                  mp.tlbMissPenalty);
    smt::Cycle now = 0;
    // The checksum keeps the compiler from discarding the accesses.
    smt::Cycle sink = 0;

    MemReplay out;
    for (int pass = 0; pass < 2; ++pass) {
        const bool timed = pass == 1;
        std::int64_t t0 = nowNs();
        for (const Access &a : istream)
            sink += mem.icacheAccess(a.tid, a.addr, now++);
        std::int64_t t1 = nowNs();
        for (const Access &a : dstream)
            sink += mem.dcacheAccess(a.tid, a.addr, a.write, now++);
        std::int64_t t2 = nowNs();
        for (const Access &a : istream)
            sink += itlb.access(a.tid, a.addr);
        for (const Access &a : dstream)
            sink += dtlb.access(a.tid, a.addr);
        std::int64_t t3 = nowNs();
        if (timed) {
            out.icache = ReplayTiming{istream.size(), t1 - t0};
            out.dcache = ReplayTiming{dstream.size(), t2 - t1};
            out.tlb = ReplayTiming{istream.size() + dstream.size(),
                                   t3 - t2};
        }
    }
    if (sink == 0)
        throw std::runtime_error("memory replay charged no latency");
    return out;
}

} // namespace perfbench
