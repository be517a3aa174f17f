#include "mem/tlb.hh"

#include <bit>

#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace smt
{

Tlb::Tlb(std::string name, unsigned num_entries, unsigned page_bytes,
         Cycle miss_penalty)
    : name(std::move(name)), missPenalty(miss_penalty)
{
    if (num_entries == 0)
        fatal("%s: TLB must have at least one entry",
              this->name.c_str());
    if (!std::has_single_bit(page_bytes))
        fatal("%s: TLB page size must be a power of two, got %u "
              "bytes",
              this->name.c_str(), page_bytes);
    pageShift = static_cast<unsigned>(std::countr_zero(page_bytes));
    entries.assign(num_entries, Entry{});
    const std::size_t slots = std::bit_ceil(2 * std::size_t(num_entries));
    index.assign(slots, IndexSlot{});
    indexMask = slots - 1;
    indexShift = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

Cycle
Tlb::access(ThreadID tid, Addr vaddr)
{
    ++tlbStats.accesses;
    std::uint64_t vpn = vpnOf(vaddr);

    std::size_t hit = find(tid, vpn);
    if (hit != noSlot) {
        entries[static_cast<std::size_t>(index[hit].entry)].lru =
            ++lruClock;
        return 0;
    }

    // Miss: fill the last invalid entry, else the first
    // least-recently-used one.
    Entry *victim = &entries[0];
    for (auto &e : entries) {
        if (!e.valid)
            victim = &e;
        else if (victim->valid && e.lru < victim->lru)
            victim = &e;
    }

    ++tlbStats.misses;
    if (victim->valid)
        indexErase(find(victim->tid, victim->vpn));
    victim->valid = true;
    victim->tid = tid;
    victim->vpn = vpn;
    victim->lru = ++lruClock;
    indexInsert(tid, vpn,
                static_cast<std::int32_t>(victim - entries.data()));
    return missPenalty;
}

void
Tlb::indexInsert(ThreadID tid, std::uint64_t vpn, std::int32_t e)
{
    std::size_t i = home(tid, vpn);
    while (index[i].entry >= 0)
        i = (i + 1) & indexMask;
    index[i] = IndexSlot{vpn, e, tid};
}

void
Tlb::indexErase(std::size_t slot)
{
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless their home lies cyclically in (hole, j].
    std::size_t hole = slot;
    for (std::size_t j = (hole + 1) & indexMask; index[j].entry >= 0;
         j = (j + 1) & indexMask) {
        std::size_t h = home(index[j].tid, index[j].vpn);
        bool stays = hole <= j ? (hole < h && h <= j)
                               : (hole < h || h <= j);
        if (!stays) {
            index[hole] = index[j];
            hole = j;
        }
    }
    index[hole] = IndexSlot{};
}

void
Tlb::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.addCounter(prefix + ".accesses", "translations requested",
                   &tlbStats.accesses);
    reg.addCounter(prefix + ".misses", "page-walk misses",
                   &tlbStats.misses);
    reg.addFormula(prefix + ".missRate", "misses per access",
                   [this]() { return tlbStats.missRate(); });
}

void
Tlb::reset()
{
    for (auto &e : entries)
        e = Entry{};
    for (auto &s : index)
        s = IndexSlot{};
    lruClock = 0;
    tlbStats = TlbStats{};
}

void
Tlb::save(CheckpointWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(entries.size()));
    w.u64(lruClock);
    for (const Entry &e : entries) {
        w.b(e.valid);
        w.i16(e.tid);
        w.u64(e.vpn);
        w.u64(e.lru);
    }
    w.u64(tlbStats.accesses);
    w.u64(tlbStats.misses);
}

void
Tlb::restore(CheckpointReader &r)
{
    std::uint32_t n = r.u32();
    if (n != entries.size())
        r.fail(csprintf("%s holds %u entries but this configuration "
                        "uses %zu (configuration mismatch)",
                        name.c_str(), n, entries.size()));
    lruClock = r.u64();
    for (auto &s : index)
        s = IndexSlot{};
    for (Entry &e : entries) {
        e.valid = r.b();
        e.tid = r.i16();
        e.vpn = r.u64();
        e.lru = r.u64();
        if (!e.valid)
            continue;
        if (find(e.tid, e.vpn) != noSlot)
            r.fail(csprintf("%s maps (thread %d, page 0x%llx) twice "
                            "(corrupt payload)",
                            name.c_str(), (int)e.tid,
                            (unsigned long long)e.vpn));
        indexInsert(e.tid, e.vpn,
                    static_cast<std::int32_t>(&e - entries.data()));
    }
    tlbStats.accesses = r.u64();
    tlbStats.misses = r.u64();
}

} // namespace smt
