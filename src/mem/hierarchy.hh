/**
 * @file
 * The full memory hierarchy of Table 3: split 32KB L1s, unified 1MB
 * L2, 100-cycle main memory, I/D TLBs.
 */

#ifndef SMTFETCH_MEM_HIERARCHY_HH
#define SMTFETCH_MEM_HIERARCHY_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class StatsRegistry;

/** Table 3 memory-system parameters. */
struct MemoryParams
{
    CacheParams l1i{"L1I", 32 * 1024, 2, 64, 8, 1, 8};
    CacheParams l1d{"L1D", 32 * 1024, 2, 64, 8, 1, 8};
    CacheParams l2{"L2", 1024 * 1024, 2, 64, 8, 10, 16};
    Cycle memoryLatency = 100;

    unsigned itlbEntries = 48;
    unsigned dtlbEntries = 128;
    unsigned pageBytes = 8 * 1024;
    Cycle tlbMissPenalty = 30;

    /** Extra load-to-use pipeline latency on an L1D hit. */
    Cycle l1dLoadToUse = 2;
};

/** Owns and wires the cache levels and TLBs. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryParams &params);

    /**
     * Instruction fetch access for one line.
     * @return total latency; equals the L1I hit latency when the line
     *         is resident and ready.
     */
    Cycle icacheAccess(ThreadID tid, Addr line_addr, Cycle now);

    /** Is the line ready for single-cycle delivery right now? */
    bool icacheReady(Addr line_addr) const;

    /** Data access (load or store). @return total latency. */
    Cycle dcacheAccess(ThreadID tid, Addr addr, bool is_write,
                       Cycle now);

    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }
    Tlb &itlb() { return *iTlb; }
    Tlb &dtlb() { return *dTlb; }

    const MemoryParams &params() const { return memParams; }

    void reset();
    void resetStats();

    /**
     * Register all cache/TLB counters under "mem.*", including the
     * caches' per-thread interference attribution for each of the
     * `num_threads` active threads.
     */
    void registerStats(StatsRegistry &reg,
                       unsigned num_threads = 1) const;

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    MemoryParams memParams;
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Tlb> iTlb;
    std::unique_ptr<Tlb> dTlb;
};

} // namespace smt

#endif // SMTFETCH_MEM_HIERARCHY_HH
