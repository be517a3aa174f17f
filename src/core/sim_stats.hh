/**
 * @file
 * Aggregate simulation statistics. The paper's two headline metrics
 * are fetch throughput (IPFC: instructions provided by the fetch unit
 * per fetch cycle, wrong path included) and commit throughput (IPC).
 *
 * SimStats is the storage the core's counters live in: the stages
 * bump its fields directly, and SmtCore::registerStats points the
 * StatsRegistry (the naming and emission layer) at each of them.
 */

#ifndef SMTFETCH_CORE_SIM_STATS_HH
#define SMTFETCH_CORE_SIM_STATS_HH

#include <array>
#include <cstdint>

#include "util/histogram.hh"
#include "util/types.hh"

namespace smt
{

class CheckpointReader;
class CheckpointWriter;

/** Counters accumulated by the core during simulation. */
struct SimStats
{
    Cycle cycles = 0;

    /** @name Fetch. */
    /// @{
    std::uint64_t fetchCycles = 0;   //!< cycles with >= 1 fetch request
    std::uint64_t instsFetched = 0;  //!< delivered insts (wrong path too)
    std::uint64_t wrongPathFetched = 0;
    Histogram fetchWidthHist{16};    //!< insts delivered per fetch cycle
    std::uint64_t bankConflicts = 0;
    std::uint64_t icacheBlockEvents = 0;
    std::uint64_t fetchBufferFullCycles = 0;
    std::uint64_t blockPredictions = 0;
    /// @}

    /** @name Commit. */
    /// @{
    std::uint64_t instsCommitted = 0;
    std::array<std::uint64_t, maxThreads> threadCommitted{};
    std::uint64_t committedCtis = 0;
    std::uint64_t committedCond = 0;
    std::uint64_t committedTaken = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    /// @}

    /** @name Speculation. */
    /// @{
    std::uint64_t instsSquashed = 0;
    std::uint64_t mispredictsResolved = 0;
    std::uint64_t bogusRedirects = 0;

    /** Mispredict breakdown by offender type. */
    std::uint64_t mispredCond = 0;
    std::uint64_t mispredJump = 0;
    std::uint64_t mispredCall = 0;
    std::uint64_t mispredReturn = 0;
    std::uint64_t mispredIndirect = 0;
    /// @}

    /** @name Back end. */
    /// @{
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;

    /** Long-latency-load policy activations (STALL/FLUSH). */
    std::uint64_t longLoadEvents = 0;
    /// @}

    /** @name Cycle skipping (simulation-speed telemetry: cycles the
     *  event-driven fast-forward jumped over instead of ticking;
     *  deliberately outside the architectural counters above). */
    /// @{
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t sleepEvents = 0;  //!< quiescent spans fast-forwarded
    std::uint64_t maxSkipSpan = 0;  //!< longest single jump, cycles
    /// @}

    /** Commit throughput in instructions per cycle. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instsCommitted) /
                                 static_cast<double>(cycles);
    }

    /** Fetch throughput in instructions per fetch cycle. */
    double
    ipfc() const
    {
        return fetchCycles == 0
                   ? 0.0
                   : static_cast<double>(instsFetched) /
                         static_cast<double>(fetchCycles);
    }

    /** Per-thread IPC. */
    double
    threadIpc(ThreadID tid) const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(threadCommitted[tid]) /
                                 static_cast<double>(cycles);
    }

    /** Mispredicts per committed conditional branch. */
    double
    branchMispredictRate() const
    {
        std::uint64_t denom = committedCtis;
        return denom == 0 ? 0.0
                          : static_cast<double>(mispredictsResolved) /
                                static_cast<double>(denom);
    }

    void
    reset()
    {
        *this = SimStats{};
    }

    /** @name Checkpoint serialization (sim/checkpoint.hh). */
    /// @{
    void save(CheckpointWriter &w) const;
    void restore(CheckpointReader &r);
    /// @}
};

} // namespace smt

#endif // SMTFETCH_CORE_SIM_STATS_HH
