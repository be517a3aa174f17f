#include "workload/trace.hh"

#include <algorithm>

#include "sim/checkpoint.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "workload/trace_file.hh"

namespace smt
{

const TraceRecord &
TraceSource::peekAhead(std::uint64_t offset)
{
    std::uint64_t pos = nextIndex + offset;
    if (pos < generatedCount) {
        // Replaying after a rewind: the record is still in the ring
        // (anything reachable from nextIndex is inside the window).
        return ring[pos % replayWindow];
    }
    std::uint64_t k = pos - generatedCount;
    while (pendingEnd - pendingHead <= k)
        refill();
    return pending[pendingHead + static_cast<std::size_t>(k)];
}

const TraceRecord &
TraceSource::next()
{
    if (nextIndex < generatedCount) {
        // Replaying after a rewind.
        return ring[nextIndex++ % replayWindow];
    }

    if (pendingHead == pendingEnd)
        refill();
    TraceRecord &rec = ring[generatedCount % replayWindow];
    rec = pending[pendingHead++];

    ++tstats.insts;
    if (rec.si->isControl()) {
        ++tstats.ctis;
        if (rec.taken)
            ++tstats.takenCtis;
        if (rec.si->isConditional()) {
            ++tstats.condBranches;
            if (rec.taken)
                ++tstats.takenCond;
        }
    }
    if (rec.si->isLoad())
        ++tstats.loads;
    if (rec.si->isStore())
        ++tstats.stores;

    ++generatedCount;
    ++nextIndex;

    if (recorder != nullptr)
        recorder->append(rec);

    return rec;
}

std::size_t
TraceSource::generateBatch(TraceRecord *out, std::size_t)
{
    out[0] = generate();
    return 1;
}

void
TraceSource::refill()
{
    // Slide the unconsumed records to the front, so the buffer stays
    // bounded by the deepest peekAhead plus one batch.
    if (pendingHead > 0) {
        std::copy(pending.begin() + pendingHead,
                  pending.begin() + pendingEnd, pending.begin());
        pendingEnd -= pendingHead;
        pendingHead = 0;
    }
    if (pending.size() < pendingEnd + batchRecords)
        pending.resize(pendingEnd + batchRecords);
    std::size_t got = generateBatch(pending.data() + pendingEnd,
                                    batchRecords);
    if (got == 0 || got > batchRecords)
        panic("trace source produced %zu records for a batch of %zu",
              got, batchRecords);
    pendingEnd += got;
}

void
TraceSource::rewindTo(std::uint64_t index)
{
    if (index > nextIndex)
        panic("trace rewind forward: %llu > %llu",
              (unsigned long long)index,
              (unsigned long long)nextIndex);
    if (generatedCount - index > replayWindow)
        panic("trace rewind beyond replay window");
    nextIndex = index;
}

namespace
{

/** TraceRecord codec: the StaticInst round-trips as its PC. */
void
saveRecord(CheckpointWriter &w, const TraceRecord &rec)
{
    w.u64(rec.si->pc);
    w.b(rec.taken);
    w.u64(rec.nextPc);
    w.u64(rec.memAddr);
}

TraceRecord
restoreRecord(CheckpointReader &r, const BenchmarkImage &img)
{
    TraceRecord rec;
    Addr pc = r.u64();
    rec.si = img.program.lookup(pc);
    if (rec.si == nullptr)
        r.fail(csprintf("trace record pc 0x%llx is not mapped in "
                        "the rebuilt program — the checkpoint does "
                        "not match this workload image",
                        (unsigned long long)pc));
    rec.taken = r.b();
    rec.nextPc = r.u64();
    rec.memAddr = r.u64();
    return rec;
}

} // namespace

void
TraceSource::saveBase(CheckpointWriter &w) const
{
    w.u64(tstats.insts);
    w.u64(tstats.ctis);
    w.u64(tstats.condBranches);
    w.u64(tstats.takenCtis);
    w.u64(tstats.takenCond);
    w.u64(tstats.loads);
    w.u64(tstats.stores);
    w.u64(generatedCount);
    w.u64(nextIndex);
    // The pending records, written as the first ("upcoming") record
    // and the rest ("lookahead").
    const bool have_upcoming = pendingHead < pendingEnd;
    w.b(have_upcoming);
    if (have_upcoming)
        saveRecord(w, pending[pendingHead]);
    w.u32(static_cast<std::uint32_t>(
        have_upcoming ? pendingEnd - pendingHead - 1 : 0));
    for (std::size_t i = pendingHead + 1; i < pendingEnd; ++i)
        saveRecord(w, pending[i]);
    // Only the live replay window is needed: squashes can rewind at
    // most replayWindow records behind the generation frontier.
    std::uint64_t window_start =
        generatedCount > replayWindow ? generatedCount - replayWindow
                                      : 0;
    w.u64(window_start);
    for (std::uint64_t i = window_start; i < generatedCount; ++i)
        saveRecord(w, ring[i % replayWindow]);
}

void
TraceSource::restoreBase(CheckpointReader &r)
{
    if (nextIndex != 0 || generatedCount != 0)
        r.fail("trace-source restore requires a freshly-constructed "
               "stream");
    tstats.insts = r.u64();
    tstats.ctis = r.u64();
    tstats.condBranches = r.u64();
    tstats.takenCtis = r.u64();
    tstats.takenCond = r.u64();
    tstats.loads = r.u64();
    tstats.stores = r.u64();
    generatedCount = r.u64();
    nextIndex = r.u64();
    pending.clear();
    if (r.b())
        pending.push_back(restoreRecord(r, img));
    std::uint32_t nla = r.u32();
    // The lookahead is bounded by one batch plus what one FTQ can
    // hold; a huge count means a corrupt payload, not a deep one.
    if (nla > 1u << 20)
        r.fail(csprintf("trace lookahead holds %u records (corrupt "
                        "payload)",
                        nla));
    for (std::uint32_t i = 0; i < nla; ++i)
        pending.push_back(restoreRecord(r, img));
    pendingHead = 0;
    pendingEnd = pending.size();
    std::uint64_t window_start = r.u64();
    std::uint64_t expected_start =
        generatedCount > replayWindow ? generatedCount - replayWindow
                                      : 0;
    if (window_start != expected_start)
        r.fail(csprintf("replay window starts at %llu, expected "
                        "%llu (corrupt payload)",
                        (unsigned long long)window_start,
                        (unsigned long long)expected_start));
    if (nextIndex > generatedCount ||
        generatedCount - nextIndex > replayWindow)
        r.fail("trace position outside the replay window (corrupt "
               "payload)");
    for (std::uint64_t i = window_start; i < generatedCount; ++i)
        ring[i % replayWindow] = restoreRecord(r, img);
}

SyntheticTraceStream::SyntheticTraceStream(const BenchmarkImage &image)
    : TraceSource(image), branchModels(image.branchModels),
      indirectModels(image.indirectModels), memModels(image.memModels),
      pc(image.program.entry())
{
}

std::size_t
SyntheticTraceStream::generateBatch(TraceRecord *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = SyntheticTraceStream::generate();
    return n;
}

TraceRecord
SyntheticTraceStream::generate()
{
    const StaticInst *si = img.program.lookup(pc);
    if (si == nullptr)
        panic("correct path left program code at 0x%llx (%s)",
              (unsigned long long)pc, img.profile.name.c_str());

    TraceRecord rec;
    rec.si = si;
    rec.taken = false;
    rec.nextPc = si->nextPc();
    rec.memAddr = invalidAddr;

    switch (si->op) {
      case OpClass::CondBranch: {
        bool taken = branchModels[si->modelId].next(oracleHistory,
                                                    oraclePathSig);
        oracleHistory = (oracleHistory << 1) | (taken ? 1 : 0);
        rec.taken = taken;
        if (taken)
            rec.nextPc = si->target;
        break;
      }
      case OpClass::Jump:
        rec.taken = true;
        rec.nextPc = si->target;
        break;
      case OpClass::CallDirect:
        rec.taken = true;
        rec.nextPc = si->target;
        if (callStack.size() < maxCallDepth)
            callStack.push_back(si->nextPc());
        break;
      case OpClass::Return:
        rec.taken = true;
        if (!callStack.empty()) {
            rec.nextPc = callStack.back();
            callStack.pop_back();
        } else {
            // Defensive: a return with no frame restarts the driver.
            rec.nextPc = img.program.entry();
        }
        break;
      case OpClass::JumpIndirect:
        rec.taken = true;
        rec.nextPc = indirectModels[si->modelId].next();
        break;
      case OpClass::Load:
      case OpClass::Store:
        rec.memAddr = memModels[si->modelId].next();
        break;
      default:
        break;
    }

    // Track the oracle path signature: packed targets of recent taken
    // CTIs, most recent in the low bits.
    if (rec.taken) {
        oraclePathSig =
            (oraclePathSig << pathSigBitsPerTarget) |
            ((rec.nextPc >> 2) & mask(pathSigBitsPerTarget));
    }

    pc = rec.nextPc;
    return rec;
}

void
SyntheticTraceStream::save(CheckpointWriter &w) const
{
    saveBase(w);
    w.u64(pc);
    w.u32(static_cast<std::uint32_t>(callStack.size()));
    for (Addr a : callStack)
        w.u64(a);
    w.u64(oracleHistory);
    w.u64(oraclePathSig);
    w.u32(static_cast<std::uint32_t>(branchModels.size()));
    for (const BranchModel &m : branchModels)
        m.save(w);
    w.u32(static_cast<std::uint32_t>(indirectModels.size()));
    for (const IndirectModel &m : indirectModels)
        m.save(w);
    w.u32(static_cast<std::uint32_t>(memModels.size()));
    for (const MemoryModel &m : memModels)
        m.save(w);
}

void
SyntheticTraceStream::restore(CheckpointReader &r)
{
    restoreBase(r);
    pc = r.u64();
    std::uint32_t depth = r.u32();
    if (depth > maxCallDepth)
        r.fail(csprintf("call-stack depth %u exceeds the %zu cap",
                        depth, maxCallDepth));
    callStack.resize(depth);
    for (Addr &a : callStack)
        a = r.u64();
    oracleHistory = r.u64();
    oraclePathSig = r.u64();
    auto check_models = [&r](std::uint32_t n, std::size_t have,
                             const char *what) {
        if (n != have)
            r.fail(csprintf("%s model count %u does not match the "
                            "image's %zu — the checkpoint does not "
                            "match this workload image",
                            what, n, have));
    };
    check_models(r.u32(), branchModels.size(), "branch");
    for (BranchModel &m : branchModels)
        m.restore(r);
    check_models(r.u32(), indirectModels.size(), "indirect");
    for (IndirectModel &m : indirectModels)
        m.restore(r);
    check_models(r.u32(), memModels.size(), "memory");
    for (MemoryModel &m : memModels)
        m.restore(r);
}

} // namespace smt
