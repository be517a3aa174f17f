#include "core/params.hh"

#include <utility>

#include "core/iq.hh"
#include "util/logging.hh"

namespace smt
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::ICount: return "ICOUNT";
      case PolicyKind::RoundRobin: return "RR";
    }
    return "?";
}

const char *
longLoadPolicyName(LongLoadPolicy kind)
{
    switch (kind) {
      case LongLoadPolicy::None: return "none";
      case LongLoadPolicy::Stall: return "stall";
      case LongLoadPolicy::Flush: return "flush";
    }
    return "?";
}

std::string
CoreParams::policyString() const
{
    return csprintf("%s.%u.%u", policyName(policy), fetchThreads,
                    fetchWidth);
}

void
CoreParams::validate() const
{
    if (numThreads == 0 || numThreads > maxThreads)
        fatal("numThreads %u out of range [1, %u]", numThreads,
              maxThreads);
    if (fetchThreads == 0 || fetchThreads > numThreads)
        fatal("fetchThreads %u out of range [1, numThreads]",
              fetchThreads);
    if (fetchWidth == 0 || fetchWidth > 16)
        fatal("fetchWidth %u out of range [1, 16]", fetchWidth);
    if (decodeWidth == 0 || commitWidth == 0)
        fatal("decode/commit width must be positive");
    if (fetchBufferSize < fetchWidth)
        fatal("fetch buffer (%u) smaller than fetch width (%u)",
              fetchBufferSize, fetchWidth);
    if (physIntRegs < numArchIntRegs * numThreads + 8)
        fatal("too few int physical registers (%u) for %u threads",
              physIntRegs, numThreads);
    if (physFpRegs < numArchFpRegs * numThreads + 8)
        fatal("too few fp physical registers (%u) for %u threads",
              physFpRegs, numThreads);
    const std::pair<const char *, unsigned> iq_sizes[] = {
        {"intIqEntries", intIqEntries},
        {"ldstIqEntries", ldstIqEntries},
        {"fpIqEntries", fpIqEntries}};
    for (const auto &[field, entries] : iq_sizes)
        if (entries > IssueQueues::maxEntries)
            fatal("%s %u exceeds the issue-queue limit of %u", field,
                  entries, IssueQueues::maxEntries);
    if (robEntries < 8)
        fatal("ROB too small");
    if (ftqEntries == 0)
        fatal("FTQ must have at least one entry");
}

} // namespace smt
