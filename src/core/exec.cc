#include "core/exec.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace smt
{

ExecUnit::ExecUnit(const CoreParams &params, MemoryHierarchy &memory)
    : params(params), memory(memory), wheel(wheelSize)
{
}

void
ExecUnit::schedule(Cycle when, ThreadID tid, InstSeqNum seq)
{
    wheel[when % wheelSize].emplace_back(tid, seq);
}

Cycle
ExecUnit::issue(DynInst &inst, Cycle now)
{
    Cycle latency;
    switch (inst.op) {
      case OpClass::IntMult:
        latency = params.intMultLatency;
        break;
      case OpClass::FpAlu:
        latency = params.fpLatency;
        break;
      case OpClass::Load:
        latency = params.agenLatency +
                  memory.dcacheAccess(inst.tid, inst.memAddr, false,
                                      now + params.agenLatency);
        break;
      case OpClass::Store:
        // Stores only generate their address here; the cache write
        // happens at commit and never blocks dependents.
        latency = params.agenLatency;
        break;
      default:
        latency = params.intAluLatency;
        break;
    }

    if (latency == 0)
        latency = 1;
    if (latency >= wheelSize)
        panic("latency %llu exceeds event wheel",
              (unsigned long long)latency);

    inst.stage = InstStage::Issued;
    schedule(now + latency, inst.tid, inst.seq);
    return latency;
}

void
ExecUnit::completionsAt(
    Cycle now, std::vector<std::pair<ThreadID, InstSeqNum>> &out)
{
    auto &slot = wheel[now % wheelSize];
    out.assign(slot.begin(), slot.end());
    slot.clear();
}

Cycle
ExecUnit::nextEventCycle(Cycle now, Cycle limit) const
{
    const Cycle end = limit - now < wheelSize ? limit - now : wheelSize;
    for (Cycle d = 1; d < end; ++d)
        if (!wheel[(now + d) % wheelSize].empty())
            return now + d;
    return limit;
}

void
ExecUnit::reset()
{
    for (auto &slot : wheel)
        slot.clear();
}

void
ExecUnit::save(CheckpointWriter &w) const
{
    w.u32(wheelSize);
    std::uint32_t non_empty = 0;
    for (const auto &slot : wheel)
        if (!slot.empty())
            ++non_empty;
    w.u32(non_empty);
    for (std::size_t i = 0; i < wheel.size(); ++i) {
        if (wheel[i].empty())
            continue;
        w.u32(static_cast<std::uint32_t>(i));
        w.u32(static_cast<std::uint32_t>(wheel[i].size()));
        for (const auto &[tid, seq] : wheel[i]) {
            w.i16(tid);
            w.u64(seq);
        }
    }
}

void
ExecUnit::restore(CheckpointReader &r)
{
    std::uint32_t size = r.u32();
    if (size != wheelSize)
        r.fail(csprintf("event wheel holds %u slots but this build "
                        "uses %zu",
                        size, wheelSize));
    reset();
    std::uint32_t non_empty = r.u32();
    for (std::uint32_t s = 0; s < non_empty; ++s) {
        std::uint32_t idx = r.u32();
        if (idx >= wheelSize)
            r.fail(csprintf("event-wheel slot %u out of range "
                            "[0, %zu)",
                            idx, wheelSize));
        std::uint32_t n = static_cast<std::uint32_t>(
            r.checkCount(r.u32(), 10, "completion"));
        for (std::uint32_t i = 0; i < n; ++i) {
            ThreadID tid = r.i16();
            InstSeqNum seq = r.u64();
            if (tid < 0 ||
                static_cast<unsigned>(tid) >= params.numThreads)
                r.fail(csprintf("completion references thread %d, "
                                "valid range is [0, %u) (corrupt "
                                "reference)",
                                (int)tid, params.numThreads));
            wheel[idx].emplace_back(tid, seq);
        }
    }
}

} // namespace smt
