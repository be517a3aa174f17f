/**
 * @file
 * Thread-priority policies for the decoupled front-end. The policy
 * ranks all threads in each cycle where a stage has an eligible
 * thread; the prediction stage and the fetch stage then take the
 * first N eligible threads in rank order.
 */

#ifndef SMTFETCH_CORE_FETCH_POLICY_HH
#define SMTFETCH_CORE_FETCH_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hh"
#include "util/types.hh"

namespace smt
{

/** Strategy interface: produce a priority-ordered thread list. */
class FetchPolicy
{
  public:
    virtual ~FetchPolicy() = default;

    /**
     * Rank threads for this cycle.
     *
     * @param rotation The rotating priority pointer: the current
     *        cycle modulo num_threads (SmtCore keeps it as a counter).
     * @param icounts Per-thread front-section instruction counts.
     * @param num_threads Number of hardware threads.
     * @param out Receives thread ids, highest priority first.
     */
    virtual void order(unsigned rotation, const std::uint32_t *icounts,
                       unsigned num_threads,
                       std::vector<ThreadID> &out) = 0;

    virtual PolicyKind kind() const = 0;
};

/**
 * ICOUNT (Tullsen et al.): prioritize threads with the fewest
 * instructions in the decode/rename/queue front section. Ties break by
 * a rotating round-robin pointer so equally-empty threads share the
 * fetch unit fairly: thread `rotation` first, then upwards, wrapping.
 */
class IcountPolicy : public FetchPolicy
{
  public:
    void order(unsigned rotation, const std::uint32_t *icounts,
               unsigned num_threads,
               std::vector<ThreadID> &out) override;
    PolicyKind kind() const override { return PolicyKind::ICount; }
};

/** Round-robin: pure rotating priority, ignores occupancy. */
class RoundRobinPolicy : public FetchPolicy
{
  public:
    void order(unsigned rotation, const std::uint32_t *icounts,
               unsigned num_threads,
               std::vector<ThreadID> &out) override;
    PolicyKind kind() const override { return PolicyKind::RoundRobin; }
};

/** Factory. */
std::unique_ptr<FetchPolicy> makePolicy(PolicyKind kind);

} // namespace smt

#endif // SMTFETCH_CORE_FETCH_POLICY_HH
