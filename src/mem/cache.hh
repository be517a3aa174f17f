/**
 * @file
 * Banked, set-associative, non-blocking cache timing model.
 *
 * The model is tag-accurate (real sets, ways, LRU, evictions) and
 * timing-approximate: a miss immediately recurses into the next level,
 * installs the line with a readiness timestamp, and returns the total
 * latency; accesses that arrive while the line is still in flight are
 * merged MSHR-style and charged the remaining wait.
 */

#ifndef SMTFETCH_MEM_CACHE_HH
#define SMTFETCH_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;
class StatsRegistry;

/** Cache geometry and timing. */
struct CacheParams
{
    std::string name = "cache";
    unsigned sizeBytes = 32 * 1024;
    unsigned ways = 2;
    unsigned lineBytes = 64;
    unsigned banks = 8;
    Cycle hitLatency = 1;
    unsigned mshrs = 8;
};

/** Access statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t writeAccesses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t evictions = 0;

    /**
     * Per-thread attribution of the shared counters above, for
     * measuring inter-thread cache interference in SMT mixes. Sums
     * over the active threads equal `accesses`/`misses` exactly.
     */
    std::array<std::uint64_t, maxThreads> threadAccesses{};
    std::array<std::uint64_t, maxThreads> threadMisses{};

    double
    missRate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/** One level of the hierarchy. */
class Cache
{
  public:
    /**
     * @param params Geometry/timing.
     * @param next Next level, or nullptr for the last cache level.
     * @param memory_latency Latency charged when next == nullptr.
     */
    Cache(const CacheParams &params, Cache *next, Cycle memory_latency);

    /**
     * Access the line containing addr on behalf of `tid` (counted
     * into that thread's interference attribution; forwarded to the
     * next level on a miss).
     * @return total cycles until the data is available (>= hit
     *         latency).
     */
    Cycle access(Addr addr, bool is_write, Cycle now,
                 ThreadID tid = 0);

    /** Tag-only test: would this access hit right now? */
    bool wouldHit(Addr addr) const;

    /** Bank servicing the given address. */
    unsigned
    bankOf(Addr addr) const
    {
        return static_cast<unsigned>((addr >> lineShift) % params_.banks);
    }

    const CacheStats &stats() const { return cacheStats; }
    const CacheParams &params() const { return params_; }

    /**
     * Register this level's counters under "<prefix>.*", including
     * "<prefix>.thread<t>.{accesses,misses}" for each of the
     * `num_threads` active threads.
     */
    void registerStats(StatsRegistry &reg, const std::string &prefix,
                       unsigned num_threads = 1) const;

    void reset();
    void resetStats() { cacheStats = CacheStats{}; }

    /**
     * @name Checkpoint serialization (sim/checkpoint.hh). The full
     * replacement state travels with the tags: the LRU clock and
     * every line's lru stamp are part of the payload, so a restored
     * cache makes the identical hit/miss/eviction decisions the
     * original would have made.
     */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        Cycle readyAt = 0; //!< fill completion time (0 = long settled)
    };

    std::uint64_t lineIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    Line *victimFor(Addr addr);

    /** Count in-flight fills and find the earliest completion. */
    unsigned outstandingFills(Cycle now, Cycle &earliest) const;

    CacheParams params_;
    Cache *nextLevel;
    Cycle memoryLatency;

    unsigned numSets;
    unsigned setBits;
    unsigned lineShift; //!< log2(lineBytes), a power of two
    std::uint64_t lruClock = 0;
    std::vector<Line> lines;

    /**
     * Ring of recent miss completion times used to approximate MSHR
     * occupancy without scanning the whole tag array.
     */
    struct MissSlot
    {
        Cycle readyAt = 0;
    };
    std::vector<MissSlot> missWindow;
    std::size_t missWindowPos = 0;

    CacheStats cacheStats;
};

} // namespace smt

#endif // SMTFETCH_MEM_CACHE_HH
