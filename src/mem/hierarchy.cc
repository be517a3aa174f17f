#include "mem/hierarchy.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace smt
{

MemoryHierarchy::MemoryHierarchy(const MemoryParams &params)
    : memParams(params)
{
    l2Cache = std::make_unique<Cache>(params.l2, nullptr,
                                      params.memoryLatency);
    l1iCache = std::make_unique<Cache>(params.l1i, l2Cache.get(), 0);
    l1dCache = std::make_unique<Cache>(params.l1d, l2Cache.get(), 0);
    iTlb = std::make_unique<Tlb>("ITLB", params.itlbEntries,
                                 params.pageBytes,
                                 params.tlbMissPenalty);
    dTlb = std::make_unique<Tlb>("DTLB", params.dtlbEntries,
                                 params.pageBytes,
                                 params.tlbMissPenalty);
}

Cycle
MemoryHierarchy::icacheAccess(ThreadID tid, Addr line_addr, Cycle now)
{
    Cycle tlb = iTlb->access(tid, line_addr);
    return tlb + l1iCache->access(line_addr, false, now + tlb, tid);
}

bool
MemoryHierarchy::icacheReady(Addr line_addr) const
{
    return l1iCache->wouldHit(line_addr);
}

Cycle
MemoryHierarchy::dcacheAccess(ThreadID tid, Addr addr, bool is_write,
                              Cycle now)
{
    Cycle tlb = dTlb->access(tid, addr);
    Cycle lat = l1dCache->access(addr, is_write, now + tlb, tid);
    if (!is_write && lat <= memParams.l1d.hitLatency)
        lat += memParams.l1dLoadToUse;
    return tlb + lat;
}

void
MemoryHierarchy::reset()
{
    l1iCache->reset();
    l1dCache->reset();
    l2Cache->reset();
    iTlb->reset();
    dTlb->reset();
}

void
MemoryHierarchy::registerStats(StatsRegistry &reg,
                               unsigned num_threads) const
{
    l1iCache->registerStats(reg, "mem.l1i", num_threads);
    l1dCache->registerStats(reg, "mem.l1d", num_threads);
    l2Cache->registerStats(reg, "mem.l2", num_threads);
    iTlb->registerStats(reg, "mem.itlb");
    dTlb->registerStats(reg, "mem.dtlb");
}

void
MemoryHierarchy::resetStats()
{
    l1iCache->resetStats();
    l1dCache->resetStats();
    l2Cache->resetStats();
    iTlb->resetStats();
    dTlb->resetStats();
}

void
MemoryHierarchy::save(CheckpointWriter &w) const
{
    l2Cache->save(w);
    l1iCache->save(w);
    l1dCache->save(w);
    iTlb->save(w);
    dTlb->save(w);
}

void
MemoryHierarchy::restore(CheckpointReader &r)
{
    l2Cache->restore(r);
    l1iCache->restore(r);
    l1dCache->restore(r);
    iTlb->restore(r);
    dTlb->restore(r);
}

} // namespace smt
