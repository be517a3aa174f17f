#include "core/fetch_policy.hh"

#include <array>

#include "util/logging.hh"

namespace smt
{

void
IcountPolicy::order(unsigned rotation, const std::uint32_t *icounts,
                    unsigned num_threads, std::vector<ThreadID> &out)
{
    // Sort key (icount, rank after the rotation). The keys are
    // distinct, so each thread's place is the number of smaller keys:
    // the order a stable sort by icount with the rotating tie-break
    // gives, without branches that follow the icounts.
    std::array<std::uint64_t, maxThreads> key;
    for (unsigned t = 0; t < num_threads; ++t) {
        unsigned rank = t >= rotation ? t - rotation
                                      : t + num_threads - rotation;
        key[t] = (static_cast<std::uint64_t>(icounts[t]) << 32) | rank;
    }
    out.resize(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        unsigned place = 0;
        for (unsigned s = 0; s < num_threads; ++s)
            place += key[s] < key[t];
        out[place] = static_cast<ThreadID>(t);
    }
}

void
RoundRobinPolicy::order(unsigned rotation, const std::uint32_t *icounts,
                        unsigned num_threads,
                        std::vector<ThreadID> &out)
{
    (void)icounts;
    out.resize(num_threads);
    unsigned t = rotation;
    for (unsigned i = 0; i < num_threads; ++i) {
        out[i] = static_cast<ThreadID>(t);
        t = t + 1 == num_threads ? 0 : t + 1;
    }
}

std::unique_ptr<FetchPolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::ICount:
        return std::make_unique<IcountPolicy>();
      case PolicyKind::RoundRobin:
        return std::make_unique<RoundRobinPolicy>();
    }
    panic("unknown policy kind");
}

} // namespace smt
