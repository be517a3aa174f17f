/**
 * @file
 * Fully-associative TLB timing model: a fixed-capacity LRU set of
 * (thread, virtual page) entries with a constant page-walk penalty on
 * miss. Hits are found through an open-addressed (thread, page) index
 * instead of a scan; a miss scans for its victim, so replacement is
 * exactly the scan's choice (the last invalid entry, else the first
 * least-recently-used one).
 */

#ifndef SMTFETCH_MEM_TLB_HH
#define SMTFETCH_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class StatsRegistry;

/** TLB statistics. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/** Paper configuration: 48-entry I-TLB, 128-entry D-TLB, 8KB pages. */
class Tlb
{
  public:
    /** fatal() unless `num_entries` > 0 and `page_bytes` is a power
     *  of two. */
    Tlb(std::string name, unsigned num_entries, unsigned page_bytes,
        Cycle miss_penalty);

    /**
     * Translate; @return extra cycles charged (0 on hit, the page-walk
     * penalty on miss).
     */
    Cycle access(ThreadID tid, Addr vaddr);

    bool
    wouldHit(ThreadID tid, Addr vaddr) const
    {
        return find(tid, vpnOf(vaddr)) != noSlot;
    }

    const TlbStats &stats() const { return tlbStats; }

    /** Register this TLB's counters under "<prefix>.*". */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    void reset();
    void resetStats() { tlbStats = TlbStats{}; }

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        ThreadID tid = invalidThread;
        std::uint64_t vpn = 0;
        std::uint64_t lru = 0;
    };

    /** One linear-probing slot of the (tid, vpn) -> entry index. */
    struct IndexSlot
    {
        std::uint64_t vpn = 0;
        std::int32_t entry = -1; //!< -1: empty
        ThreadID tid = invalidThread;
    };

    static constexpr std::size_t noSlot = ~std::size_t(0);

    std::uint64_t vpnOf(Addr vaddr) const { return vaddr >> pageShift; }

    std::size_t
    home(ThreadID tid, std::uint64_t vpn) const
    {
        std::uint64_t key =
            vpn ^ (static_cast<std::uint64_t>(tid) << 56);
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> indexShift);
    }

    /** Index slot holding (tid, vpn), or noSlot. */
    std::size_t
    find(ThreadID tid, std::uint64_t vpn) const
    {
        for (std::size_t i = home(tid, vpn);; i = (i + 1) & indexMask) {
            const IndexSlot &s = index[i];
            if (s.entry < 0)
                return noSlot;
            if (s.vpn == vpn && s.tid == tid)
                return i;
        }
    }

    void indexInsert(ThreadID tid, std::uint64_t vpn, std::int32_t e);
    void indexErase(std::size_t slot);

    std::string name;
    unsigned pageShift = 0;
    Cycle missPenalty;
    std::uint64_t lruClock = 0;
    std::vector<Entry> entries;
    TlbStats tlbStats;

    /** Open-addressed index over the valid entries: a power of two
     *  at least twice the entry count, so probes stay short. */
    std::vector<IndexSlot> index;
    std::size_t indexMask = 0;
    unsigned indexShift = 0;
};

} // namespace smt

#endif // SMTFETCH_MEM_TLB_HH
