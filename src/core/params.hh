/**
 * @file
 * SMT core configuration, mirroring the paper's Table 3. The fetch
 * policy is expressed as (policy, fetchThreads, fetchWidth): e.g.
 * ICOUNT.2.8 = (ICount, 2, 8).
 */

#ifndef SMTFETCH_CORE_PARAMS_HH
#define SMTFETCH_CORE_PARAMS_HH

#include <string>

#include "bpred/fetch_engine.hh"
#include "mem/hierarchy.hh"
#include "util/types.hh"

namespace smt
{

/** Thread-priority policy for the fetch and prediction stages. */
enum class PolicyKind : unsigned char
{
    ICount,     //!< fewest in-flight front-section instructions first
    RoundRobin, //!< rotating priority
};

const char *policyName(PolicyKind kind);

/**
 * Long-latency-load handling (Tullsen & Brown, MICRO'01), the
 * alternative clog fix the paper discusses in related work.
 */
enum class LongLoadPolicy : unsigned char
{
    None,  //!< baseline: stalled threads keep their resources
    Stall, //!< stop fetching for a thread with a memory-bound load
    Flush, //!< additionally squash its not-yet-executed younger insts
};

const char *longLoadPolicyName(LongLoadPolicy kind);

/** Full core configuration (Table 3 defaults). */
struct CoreParams
{
    unsigned numThreads = 2;

    /** @name Fetch policy N.X: up to X insts total from N threads. */
    /// @{
    PolicyKind policy = PolicyKind::ICount;
    unsigned fetchThreads = 1; //!< N
    unsigned fetchWidth = 8;   //!< X
    /// @}

    EngineKind engine = EngineKind::GshareBtb;
    EngineParams engineParams{};

    unsigned ftqEntries = 4;        //!< per thread
    unsigned fetchBufferSize = 32;  //!< shared
    unsigned decodeWidth = 8;
    unsigned commitWidth = 8;

    unsigned intIqEntries = 32;
    unsigned ldstIqEntries = 32;
    unsigned fpIqEntries = 32;

    unsigned robEntries = 256;      //!< per thread (dispatched)

    unsigned physIntRegs = 384;
    unsigned physFpRegs = 384;

    unsigned intFUs = 6;
    unsigned ldstFUs = 4;
    unsigned fpFUs = 3;

    Cycle intAluLatency = 1;
    Cycle intMultLatency = 6;
    Cycle fpLatency = 4;
    Cycle agenLatency = 1; //!< address generation before D-cache

    /** @name Long-latency-load policy (extension, default off). */
    /// @{
    LongLoadPolicy longLoadPolicy = LongLoadPolicy::None;

    /** A load slower than this is "long" (beyond an L2 hit). */
    Cycle longLoadThreshold = 30;
    /// @}

    /**
     * Event-driven fast-forward over globally quiescent cycles
     * (simulation speed only — results are bit-identical either way;
     * excluded from warmupConfigKey for that reason). Off = tick
     * every cycle (smtsim --no-cycle-skip).
     */
    bool cycleSkip = true;

    MemoryParams memory{};

    /** Policy-string rendering, e.g. "ICOUNT.2.8". */
    std::string policyString() const;

    /** Validate invariants; fatal() on user error. */
    void validate() const;
};

} // namespace smt

#endif // SMTFETCH_CORE_PARAMS_HH
