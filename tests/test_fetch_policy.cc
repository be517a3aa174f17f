/**
 * @file
 * FetchPolicy unit tests (ICOUNT ranking, tie-break rotation,
 * round-robin) and coverage for the front end's long-latency-load
 * stall/flush paths: each LongLoadPolicy value is driven through the
 * MEM-heavy 2_MEM workload and must leave its signature in the
 * stall/flush counters.
 */

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/fetch_policy.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

using namespace smt;

namespace
{

/** Rank at cycle `now`: the rotation is the cycle modulo the thread
 *  count, as SmtCore keeps it. */
std::vector<ThreadID>
rank(FetchPolicy &policy, Cycle now,
     std::initializer_list<std::uint32_t> icounts)
{
    std::vector<std::uint32_t> counts(icounts);
    std::vector<ThreadID> out;
    const auto n = static_cast<unsigned>(counts.size());
    policy.order(static_cast<unsigned>(now % n), counts.data(), n, out);
    return out;
}

SimStats
runWithLongLoadPolicy(LongLoadPolicy policy, Simulator **sim_out,
                      std::vector<std::unique_ptr<Simulator>> &keep)
{
    SimConfig cfg = table3Config("2_MEM", EngineKind::GshareBtb, 2, 8);
    cfg.core.longLoadPolicy = policy;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 20000;
    keep.push_back(std::make_unique<Simulator>(cfg));
    Simulator &sim = *keep.back();
    if (sim_out != nullptr)
        *sim_out = &sim;
    sim.run();
    return sim.stats();
}

} // namespace

TEST(FetchPolicy, IcountRanksLowestOccupancyFirst)
{
    IcountPolicy icount;
    EXPECT_EQ(rank(icount, 0, {5, 1, 3}),
              (std::vector<ThreadID>{1, 2, 0}));
    EXPECT_EQ(rank(icount, 0, {0, 0, 9, 4}),
              (std::vector<ThreadID>{0, 1, 3, 2}));
    EXPECT_EQ(icount.kind(), PolicyKind::ICount);
}

TEST(FetchPolicy, IcountTieBreakRotatesAcrossCycles)
{
    // Equally-empty threads must share the fetch unit fairly: the
    // tie-break pointer advances with the cycle count.
    IcountPolicy icount;
    EXPECT_EQ(rank(icount, 0, {2, 2, 2}),
              (std::vector<ThreadID>{0, 1, 2}));
    EXPECT_EQ(rank(icount, 1, {2, 2, 2}),
              (std::vector<ThreadID>{1, 2, 0}));
    EXPECT_EQ(rank(icount, 2, {2, 2, 2}),
              (std::vector<ThreadID>{2, 0, 1}));
    // Occupancy still dominates the rotation.
    EXPECT_EQ(rank(icount, 1, {2, 2, 0}),
              (std::vector<ThreadID>{2, 1, 0}));
}

TEST(FetchPolicy, IcountTieBreakProperty)
{
    // Property check over thread counts and occupancies:
    //  (a) with all threads tied, every thread gets top priority
    //      exactly once across num_threads consecutive cycles;
    //  (b) every ordering is exactly the stable sort by icount with
    //      the documented rotating tie-break (the reference comparator
    //      below), checked exhaustively: every icount vector over
    //      {0, 1, 2} (ties everywhere) for 1-8 threads, at every
    //      rotation.
    IcountPolicy icount;
    std::vector<ThreadID> out;
    for (unsigned n : {2u, 3u, 5u, 8u}) {
        std::vector<std::uint32_t> tied(n, 7);
        std::vector<unsigned> tops(n, 0);
        for (unsigned rotation = 0; rotation < n; ++rotation) {
            icount.order(rotation, tied.data(), n, out);
            ASSERT_EQ(out.size(), n);
            ++tops[out.front()];
        }
        for (unsigned t = 0; t < n; ++t)
            EXPECT_EQ(tops[t], 1u)
                << "thread " << t << " of " << n
                << " was not top priority exactly once";
    }

    for (unsigned n = 1; n <= 8; ++n) {
        unsigned combos = 1;
        for (unsigned t = 0; t < n; ++t)
            combos *= 3;
        std::vector<std::uint32_t> counts(n);
        for (unsigned c = 0; c < combos; ++c) {
            unsigned v = c;
            for (unsigned t = 0; t < n; ++t, v /= 3)
                counts[t] = v % 3;
            for (unsigned rotation = 0; rotation < n; ++rotation) {
                icount.order(rotation, counts.data(), n, out);
                std::vector<ThreadID> ref(n);
                std::iota(ref.begin(), ref.end(), ThreadID{0});
                std::stable_sort(
                    ref.begin(), ref.end(),
                    [&](ThreadID a, ThreadID b) {
                        if (counts[a] != counts[b])
                            return counts[a] < counts[b];
                        return (a + n - rotation) % n <
                               (b + n - rotation) % n;
                    });
                ASSERT_EQ(out, ref)
                    << n << " threads, case " << c << ", rot " << rotation;
            }
        }
    }
}

TEST(FetchPolicy, RoundRobinIgnoresOccupancy)
{
    RoundRobinPolicy rr;
    EXPECT_EQ(rank(rr, 0, {9, 0, 5}),
              (std::vector<ThreadID>{0, 1, 2}));
    EXPECT_EQ(rank(rr, 1, {9, 0, 5}),
              (std::vector<ThreadID>{1, 2, 0}));
    EXPECT_EQ(rank(rr, 5, {9, 0, 5}),
              (std::vector<ThreadID>{2, 0, 1}));
    EXPECT_EQ(rr.kind(), PolicyKind::RoundRobin);
}

TEST(FetchPolicy, FactoryBuildsTheRequestedPolicy)
{
    EXPECT_EQ(makePolicy(PolicyKind::ICount)->kind(),
              PolicyKind::ICount);
    EXPECT_EQ(makePolicy(PolicyKind::RoundRobin)->kind(),
              PolicyKind::RoundRobin);
}

TEST(FrontEndLongLoad, StallAndUnstallBookkeeping)
{
    SimConfig cfg = table3Config("2_MIX", EngineKind::GshareBtb, 1, 8);
    Simulator sim(cfg);
    FrontEnd &fe = sim.core().frontEnd();

    EXPECT_FALSE(fe.memStalled(0, 10));
    fe.stallThread(0, 100);
    EXPECT_TRUE(fe.memStalled(0, 50));
    EXPECT_TRUE(fe.memStalled(0, 99));
    EXPECT_FALSE(fe.memStalled(0, 100));
    EXPECT_FALSE(fe.memStalled(1, 50));

    // Any redirect clears the stall (the thread restarts fetching).
    fe.redirect(0, sim.workload().images[0]->program.entry(), 60);
    EXPECT_FALSE(fe.memStalled(0, 70));
}

TEST(FrontEndLongLoad, PoliciesLeaveTheirCounterSignature)
{
    std::vector<std::unique_ptr<Simulator>> keep;
    SimStats none =
        runWithLongLoadPolicy(LongLoadPolicy::None, nullptr, keep);
    SimStats stall =
        runWithLongLoadPolicy(LongLoadPolicy::Stall, nullptr, keep);
    Simulator *flush_sim = nullptr;
    SimStats flush = runWithLongLoadPolicy(LongLoadPolicy::Flush,
                                           &flush_sim, keep);

    // The baseline never activates the mechanism; the MEM-heavy
    // workload must trigger it under STALL and FLUSH.
    EXPECT_EQ(none.longLoadEvents, 0u);
    EXPECT_GT(stall.longLoadEvents, 0u);
    EXPECT_GT(flush.longLoadEvents, 0u);

    // FLUSH additionally squashes the stalled thread's younger
    // instructions, so it must discard strictly more than STALL.
    EXPECT_GT(flush.instsSquashed, stall.instsSquashed);

    // All three still commit work.
    EXPECT_GT(none.instsCommitted, 0u);
    EXPECT_GT(stall.instsCommitted, 0u);
    EXPECT_GT(flush.instsCommitted, 0u);

    // The unified registry mirrors the long-load counter.
    const StatsRegistry &reg = flush_sim->registry();
    EXPECT_NE(reg.jsonString().find("longLoadEvents"),
              std::string::npos);
}
