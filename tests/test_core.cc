/**
 * @file
 * Tests for the SMT core components: FTQ, fetch policies, rename unit,
 * ROB, the latches over it, issue queues and core parameters.
 */

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>
#include <vector>

#include "core/fetch_policy.hh"
#include "core/ftq.hh"
#include "core/iq.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "sim/checkpoint.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace smt
{
namespace
{

BlockPrediction
makeBlock(Addr start, unsigned len)
{
    BlockPrediction b;
    b.start = start;
    b.lengthInsts = len;
    b.nextFetchPc = start + len * instBytes;
    return b;
}

TEST(FtqTest, PushConsumePop)
{
    FetchTargetQueue ftq(2);
    EXPECT_TRUE(ftq.empty());
    ftq.push(makeBlock(0x1000, 6));
    ftq.push(makeBlock(0x2000, 4));
    EXPECT_TRUE(ftq.full());
    EXPECT_EQ(ftq.headFetchPc(), 0x1000u);
    EXPECT_EQ(ftq.headRemaining(), 6u);
    ftq.consume(4); // partial
    EXPECT_EQ(ftq.headFetchPc(), 0x1010u);
    EXPECT_EQ(ftq.headRemaining(), 2u);
    ftq.consume(2); // pops
    EXPECT_EQ(ftq.headFetchPc(), 0x2000u);
    EXPECT_FALSE(ftq.full());
}

TEST(FtqTest, ClearEmpties)
{
    FetchTargetQueue ftq(4);
    ftq.push(makeBlock(0x1000, 8));
    ftq.consume(3);
    ftq.clear();
    EXPECT_TRUE(ftq.empty());
    ftq.push(makeBlock(0x3000, 2));
    EXPECT_EQ(ftq.headFetchPc(), 0x3000u); // offset reset
}

TEST(PolicyTest, IcountOrdersAscending)
{
    IcountPolicy policy;
    std::uint32_t icounts[4] = {30, 5, 17, 5};
    std::vector<ThreadID> order;
    policy.order(0, icounts, 4, order);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.back(), 0); // most loaded last
    EXPECT_EQ(icounts[order[0]], 5u);
    EXPECT_EQ(icounts[order[1]], 5u);
}

TEST(PolicyTest, IcountTieBreakRotates)
{
    IcountPolicy policy;
    std::uint32_t icounts[2] = {7, 7};
    std::vector<ThreadID> o0, o1;
    policy.order(0, icounts, 2, o0);
    policy.order(1, icounts, 2, o1); // rotation = cycle mod threads
    EXPECT_NE(o0[0], o1[0]); // fair under ties
}

TEST(PolicyTest, RoundRobinRotates)
{
    RoundRobinPolicy policy;
    std::uint32_t icounts[3] = {100, 0, 50}; // ignored
    std::vector<ThreadID> order;
    policy.order(7 % 3, icounts, 3, order); // cycle 7
    EXPECT_EQ(order[0], 7 % 3);
    EXPECT_EQ(order[1], (7 + 1) % 3);
}

TEST(PolicyTest, Factory)
{
    EXPECT_EQ(makePolicy(PolicyKind::ICount)->kind(),
              PolicyKind::ICount);
    EXPECT_EQ(makePolicy(PolicyKind::RoundRobin)->kind(),
              PolicyKind::RoundRobin);
}

TEST(ParamsTest, PolicyString)
{
    CoreParams p;
    p.policy = PolicyKind::ICount;
    p.fetchThreads = 2;
    p.fetchWidth = 16;
    EXPECT_EQ(p.policyString(), "ICOUNT.2.16");
}

TEST(ParamsTest, ValidateAcceptsTable3)
{
    CoreParams p;
    p.numThreads = 8;
    p.validate(); // must not fatal
    SUCCEED();
}

// --- Rename unit -----------------------------------------------------

StaticInst aluInst;

DynInst
makeAlu(ThreadID tid, RegIndex src, RegIndex dst)
{
    aluInst.src1 = src;
    aluInst.src2 = invalidReg;
    aluInst.dst = dst;
    aluInst.op = OpClass::IntAlu;
    DynInst d;
    d.tid = tid;
    d.si = &aluInst;
    d.op = OpClass::IntAlu;
    return d;
}

TEST(RenameTest, InitialStateAccounting)
{
    RenameUnit ru(384, 384, 2);
    // 2 threads x 32 arch regs mapped and ready.
    EXPECT_EQ(ru.freeIntRegs(), 384u - 64u);
    EXPECT_EQ(ru.freeFpRegs(), 384u - 64u);
}

TEST(RenameTest, RenameAllocatesAndTracksReadiness)
{
    RenameUnit ru(96, 96, 1);
    DynInst d = makeAlu(0, 3, 5);
    ru.rename(d);
    EXPECT_NE(d.physDst, invalidReg);
    EXPECT_NE(d.prevPhysDst, invalidReg);
    EXPECT_TRUE(ru.isReady(d.physSrc1, false)); // arch value ready
    EXPECT_FALSE(ru.isReady(d.physDst, false)); // not produced yet
    ru.markReady(d.physDst, false);
    EXPECT_TRUE(ru.isReady(d.physDst, false));
}

TEST(RenameTest, DependencyThroughRenamedReg)
{
    RenameUnit ru(96, 96, 1);
    DynInst producer = makeAlu(0, 1, 7);
    ru.rename(producer);
    DynInst consumer = makeAlu(0, 7, 8);
    ru.rename(consumer);
    EXPECT_EQ(consumer.physSrc1, producer.physDst);
    EXPECT_FALSE(ru.sourcesReady(consumer));
    ru.markReady(producer.physDst, false);
    EXPECT_TRUE(ru.sourcesReady(consumer));
}

TEST(RenameTest, CommitFreesPreviousMapping)
{
    RenameUnit ru(96, 96, 1);
    unsigned before = ru.freeIntRegs();
    DynInst d = makeAlu(0, 1, 7);
    ru.rename(d);
    EXPECT_EQ(ru.freeIntRegs(), before - 1);
    ru.commit(d);
    EXPECT_EQ(ru.freeIntRegs(), before); // prev phys returned
}

TEST(RenameTest, RollbackRestoresMapAndFreeList)
{
    RenameUnit ru(96, 96, 1);
    unsigned before = ru.freeIntRegs();
    DynInst a = makeAlu(0, 1, 7);
    ru.rename(a);
    DynInst b = makeAlu(0, 1, 7); // same arch dest
    ru.rename(b);
    // Roll back youngest first.
    ru.rollback(b);
    ru.rollback(a);
    EXPECT_EQ(ru.freeIntRegs(), before);
    // The arch mapping is back to the original: a new consumer reads
    // a ready (architectural) register.
    DynInst c = makeAlu(0, 7, 8);
    ru.rename(c);
    EXPECT_TRUE(ru.isReady(c.physSrc1, false));
}

TEST(RenameTest, ExhaustionReported)
{
    RenameUnit ru(34, 34, 1); // 32 arch + 2 spare
    EXPECT_TRUE(ru.canAllocate(false));
    DynInst a = makeAlu(0, 1, 2);
    ru.rename(a);
    DynInst b = makeAlu(0, 1, 3);
    ru.rename(b);
    EXPECT_FALSE(ru.canAllocate(false));
}

// --- Reorder buffer ---------------------------------------------------

TEST(RobTest, SquashLeavesSequenceHoles)
{
    // Regression for the Rob::find invariant: a squash pops the back
    // WITHOUT rewinding the per-thread sequence counter (squashed
    // numbers may still be referenced from the completion wheel, so
    // reuse would alias old events onto new instructions). The next
    // fetched instruction therefore continues past a gap and the live
    // window is NOT contiguous — find() must still resolve live
    // sequence numbers and reject squashed ones.
    Rob rob(1, 16);
    for (int i = 0; i < 3; ++i)
        rob.create(0); // seqs 1..3
    rob.popYoungest(0); // squash seq 3
    rob.popYoungest(0); // squash seq 2
    DynInst &refetched = rob.create(0);
    EXPECT_EQ(refetched.seq, 4u); // continues past the gap
    EXPECT_EQ(rob.size(0), 2u);   // window [1, 4] has a hole
    ASSERT_NE(rob.find(0, 1), nullptr);
    EXPECT_EQ(rob.find(0, 1)->seq, 1u);
    EXPECT_EQ(rob.find(0, 2), nullptr); // squashed
    EXPECT_EQ(rob.find(0, 3), nullptr); // squashed
    EXPECT_EQ(rob.find(0, 4), &refetched);
    EXPECT_EQ(rob.find(0, 5), nullptr); // never created
}

TEST(RobTest, DenseWindowLookupSurvivesRingWraparound)
{
    // Commit+create far past the ring capacity: slots are reused but
    // the dense-window O(1) lookup stays exact at every step.
    Rob rob(1, 8);
    for (unsigned i = 0; i < 100; ++i) {
        rob.create(0);
        if (rob.size(0) == 8)
            rob.popHead(0); // commit the oldest
    }
    InstSeqNum oldest = rob.head(0).seq;
    InstSeqNum youngest = rob.youngest(0).seq;
    EXPECT_EQ(youngest, 100u);
    for (InstSeqNum s = oldest; s <= youngest; ++s) {
        DynInst *inst = rob.find(0, s);
        ASSERT_NE(inst, nullptr) << "seq " << s;
        EXPECT_EQ(inst->seq, s);
    }
    EXPECT_EQ(rob.find(0, oldest - 1), nullptr);
    EXPECT_EQ(rob.find(0, youngest + 1), nullptr);
}

TEST(RobTest, ReusedSlotsComeBackDefaultInitialized)
{
    Rob rob(1, 4);
    DynInst &a = rob.create(0);
    a.pc = 0x1234;
    a.mispredicted = true;
    a.stage = InstStage::Done;
    rob.popHead(0);
    // Four more creates wrap the ring onto a's old slot.
    DynInst *last = nullptr;
    for (int i = 0; i < 4; ++i)
        last = &rob.create(0);
    EXPECT_EQ(last->seq, 5u);
    EXPECT_EQ(last->pc, invalidAddr);
    EXPECT_FALSE(last->mispredicted);
    EXPECT_EQ(last->stage, InstStage::Fetched);
}

TEST(RobTest, PerThreadListsAreIndependent)
{
    Rob rob(2, 8);
    rob.create(0);
    rob.create(1);
    rob.create(1);
    EXPECT_EQ(rob.size(0), 1u);
    EXPECT_EQ(rob.size(1), 2u);
    EXPECT_EQ(rob.youngest(1).seq, 2u); // own sequence space
    EXPECT_EQ(rob.find(1, 2)->tid, 1);
    rob.reset();
    EXPECT_TRUE(rob.empty(0));
    EXPECT_TRUE(rob.empty(1));
    EXPECT_EQ(rob.create(0).seq, 1u); // counters rewound
}

TEST(RobTest, CheckpointRingNeverReusesALiveSlot)
{
    // The ROB head stalls while the instructions behind it are
    // fetched and squashed over and over: every squash must hand its
    // slots back, or the ring wraps onto the head's live checkpoint.
    constexpr unsigned capacity = 8;
    Rob rob(1, capacity);
    DynInst &head = rob.create(0);
    EngineCheckpoint &held = rob.newCheckpoint(0);
    held.blockStart = 0x4000;
    held.ghist = 0xfeed;
    head.ckpt = &held;
    for (unsigned round = 0; round < 3 * capacity; ++round) {
        for (unsigned k = 0; k < 3; ++k) {
            EngineCheckpoint &slot = rob.newCheckpoint(0);
            slot.blockStart = 0x8000 + round;
            slot.ghist = round;
            rob.create(0).ckpt = &slot;
        }
        while (rob.size(0) > 1)
            rob.popYoungest(0);
        rob.releaseCheckpointsAfter(0, head.ckpt);
    }
    EXPECT_EQ(head.ckpt, &held);
    EXPECT_EQ(held.blockStart, 0x4000u);
    EXPECT_EQ(held.ghist, 0xfeedu);
}

// --- Latches as ROB ranges -------------------------------------------

TEST(LatchTest, LatchesTileTheRobYoungEndAcrossSquashes)
{
    // Mispredict and FLUSH squashes empty every latch of the thread;
    // on top of those, squash after a random correct-path entry
    // (dispatched or in any latch) in one cycle of four. After every
    // step, each ROB entry at or past robCount must sit in the latch
    // its position names (rename, then decode, then fetch buffer), at
    // that latch's stage, and the icounts must still match.
    struct Case
    {
        const char *workload;
        EngineKind engine;
        unsigned threads, width;
        LongLoadPolicy longLoad;
    };
    const Case cases[] = {
        {"2_MIX", EngineKind::GshareBtb, 2, 8, LongLoadPolicy::Flush},
        {"4_ILP", EngineKind::Stream, 1, 16, LongLoadPolicy::None},
        {"4_MEM", EngineKind::GskewFtb, 2, 16, LongLoadPolicy::Stall},
    };
    for (const Case &c : cases) {
        for (std::uint64_t seed : {0u, 7u}) {
            SimConfig cfg =
                table3Config(c.workload, c.engine, c.threads, c.width);
            cfg.core.longLoadPolicy = c.longLoad;
            cfg.seed = seed;
            Simulator sim(cfg);
            SmtCore &core = sim.core();
            std::mt19937_64 rng(seed + 1);
            unsigned latch_squashes = 0;
            for (int i = 0; i < 6000; ++i) {
                core.cycle();
                ASSERT_EQ(core.latchTilingError(), "") << "cycle " << i;
                core.checkIcountInvariant();
                if (rng() % 4 != 0)
                    continue;
                ThreadID tid = static_cast<ThreadID>(rng() % c.threads);
                std::vector<std::size_t> candidates;
                for (std::size_t k = 0; k < core.inFlight(tid); ++k)
                    if (!core.robEntry(tid, k).wrongPath)
                        candidates.push_back(k);
                if (candidates.empty())
                    continue;
                std::size_t k = candidates[rng() % candidates.size()];
                if (k >= core.robOccupancyOf(tid) &&
                    k + 1 < core.inFlight(tid))
                    ++latch_squashes;
                core.squashYoungerThan(tid, k);
                ASSERT_EQ(core.latchTilingError(), "")
                    << "squash after entry " << k << " at cycle " << i;
                core.checkIcountInvariant();
            }
            EXPECT_GT(latch_squashes, 100u)
                << c.workload << " seed " << seed;
            EXPECT_GT(core.stats().instsCommitted, 0u)
                << c.workload << " seed " << seed;
        }
    }
}

// --- Issue queues -----------------------------------------------------

TEST(IqTest, ClassMapping)
{
    EXPECT_EQ(iqClassFor(OpClass::Load), IqClass::LdSt);
    EXPECT_EQ(iqClassFor(OpClass::Store), IqClass::LdSt);
    EXPECT_EQ(iqClassFor(OpClass::FpAlu), IqClass::Fp);
    EXPECT_EQ(iqClassFor(OpClass::CondBranch), IqClass::Int);
    EXPECT_EQ(iqClassFor(OpClass::IntAlu), IqClass::Int);
}

TEST(IqTest, CapacityPerClass)
{
    IssueQueues iqs(2, 2, 2, 96, 96);
    RenameUnit ru(96, 96, 1);
    std::vector<DynInst> insts(3, makeAlu(0, invalidReg, invalidReg));
    for (auto &d : insts)
        d.si = nullptr; // no operands: always ready
    iqs.insert(&insts[0], ru);
    iqs.insert(&insts[1], ru);
    EXPECT_FALSE(iqs.hasSpace(IqClass::Int));
    EXPECT_TRUE(iqs.hasSpace(IqClass::LdSt));
}

TEST(IqTest, CapacityAboveMaskWidthRejected)
{
    CoreParams p;
    p.intIqEntries = IssueQueues::maxEntries;
    p.validate(); // 64 entries still fit one mask
    p.ldstIqEntries = IssueQueues::maxEntries + 1;
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "ldstIqEntries 65 exceeds");
}

TEST(IqTest, PickReadyRespectsFuLimits)
{
    IssueQueues iqs(8, 8, 8, 96, 96);
    RenameUnit ru(96, 96, 1);
    std::vector<DynInst> insts(5);
    for (auto &d : insts) {
        d.tid = 0;
        d.op = OpClass::IntAlu; // no si: sources trivially ready
        iqs.insert(&d, ru);
    }
    std::vector<DynInst *> picked;
    iqs.pickReady(/*int_fus=*/3, 4, 3, picked);
    EXPECT_EQ(picked.size(), 3u);
    EXPECT_EQ(iqs.occupancy(IqClass::Int), 2u);
}

TEST(IqTest, SquashRemovesYounger)
{
    IssueQueues iqs(8, 8, 8, 96, 96);
    RenameUnit ru(96, 96, 2);
    std::vector<DynInst> insts(4);
    for (unsigned i = 0; i < 4; ++i) {
        insts[i].tid = i < 2 ? 0 : 1;
        insts[i].seq = 10 + i;
        insts[i].op = OpClass::IntAlu;
        iqs.insert(&insts[i], ru);
    }
    iqs.squash(0, 10); // removes thread 0 seq 11 only
    EXPECT_EQ(iqs.occupancy(IqClass::Int), 3u);
    EXPECT_EQ(iqs.threadOccupancy(0), 1u);
    EXPECT_EQ(iqs.threadOccupancy(1), 2u);
}

TEST(IqTest, IncrementalOccupancyCountersTrackEveryOperation)
{
    // threadOccupancy/totalOccupancy are read from the slot masks;
    // they must agree with the queue contents after every kind of
    // mutation (insert, pick, squash, clear).
    IssueQueues iqs(8, 8, 8, 96, 96);
    RenameUnit ru(96, 96, 2);
    std::vector<DynInst> insts(6);
    for (unsigned i = 0; i < 6; ++i) {
        insts[i].tid = i % 2;
        insts[i].seq = i + 1;
        insts[i].op = i < 4 ? OpClass::IntAlu : OpClass::Load;
        iqs.insert(&insts[i], ru);
    }
    EXPECT_EQ(iqs.totalOccupancy(), 6u);
    EXPECT_EQ(iqs.threadOccupancy(0), 3u);
    EXPECT_EQ(iqs.threadOccupancy(1), 3u);

    // Pick drains ready instructions from both classes.
    std::vector<DynInst *> picked;
    iqs.pickReady(/*int_fus=*/2, /*ldst_fus=*/1, /*fp_fus=*/1, picked);
    ASSERT_EQ(picked.size(), 3u);
    unsigned t0 = 0;
    for (const DynInst *inst : picked)
        t0 += inst->tid == 0 ? 1 : 0;
    EXPECT_EQ(iqs.totalOccupancy(), 3u);
    EXPECT_EQ(iqs.threadOccupancy(0), 3u - t0);
    EXPECT_EQ(iqs.threadOccupancy(1), t0); // 3 - (3 - t0)

    // Squash everything of thread 1 younger than seq 1.
    iqs.squash(1, 1);
    EXPECT_EQ(iqs.threadOccupancy(1),
              iqs.totalOccupancy() - iqs.threadOccupancy(0));

    iqs.clear();
    EXPECT_EQ(iqs.totalOccupancy(), 0u);
    EXPECT_EQ(iqs.threadOccupancy(0), 0u);
    EXPECT_EQ(iqs.threadOccupancy(1), 0u);
}

TEST(IqTest, AgeOrderPreserved)
{
    IssueQueues iqs(8, 8, 8, 96, 96);
    RenameUnit ru(96, 96, 1);
    std::vector<DynInst> insts(4);
    for (unsigned i = 0; i < 4; ++i) {
        insts[i].tid = 0;
        insts[i].seq = i;
        insts[i].op = OpClass::IntAlu;
    }
    for (unsigned i = 0; i < 3; ++i)
        iqs.insert(&insts[i], ru);
    std::vector<DynInst *> picked;
    iqs.pickReady(1, 0, 0, picked);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0]->seq, 0u);

    // The youngest entry reuses the freed lowest slot but is still
    // selected last.
    iqs.insert(&insts[3], ru);
    picked.clear();
    iqs.pickReady(2, 4, 3, picked);
    ASSERT_EQ(picked.size(), 2u);
    EXPECT_EQ(picked[0]->seq, 1u);
    EXPECT_EQ(picked[1]->seq, 2u);
}

/**
 * Reference model: the select the wakeup masks replaced. One
 * age-ordered vector per class, scanned every call against the byte
 * scoreboard of the rename unit.
 */
struct ScanIq
{
    std::array<std::vector<DynInst *>, 3> q;

    void insert(DynInst *d) { q[int(iqClassFor(d->op))].push_back(d); }
    void
    pick(const RenameUnit &ru, const unsigned limit[3],
         std::vector<DynInst *> &out)
    {
        for (unsigned c = 0; c < 3; ++c) {
            unsigned taken = 0;
            std::erase_if(q[c], [&](DynInst *d) {
                if (taken == limit[c] || !ru.sourcesReady(*d))
                    return false;
                out.push_back(d);
                ++taken;
                return true;
            });
        }
    }
    bool
    hasReady(const RenameUnit &ru) const
    {
        for (const auto &v : q)
            for (const DynInst *d : v)
                if (ru.sourcesReady(*d))
                    return true;
        return false;
    }
    void
    squash(ThreadID tid, InstSeqNum seq)
    {
        for (auto &v : q)
            std::erase_if(v, [&](DynInst *d) {
                return d->tid == tid && d->seq > seq;
            });
    }
};

/** The (tid, seq) age-order encoding IssueQueues::save writes. */
std::string
saveScanIq(const ScanIq &model)
{
    CheckpointWriter w("model", "key");
    w.begin("core.iq");
    for (const auto &v : model.q) {
        w.u32(static_cast<std::uint32_t>(v.size()));
        for (const DynInst *d : v) {
            w.i16(d->tid);
            w.u64(d->seq);
        }
    }
    w.end();
    return w.finish();
}

TEST(IqTest, WakeupSelectMatchesScanModel)
{
    // Random inserts (sources ready, pending, one register for both,
    // or none), writebacks, squashes of waiting entries with slot
    // reuse, and picks at random FU limits, driven through both
    // IssueQueues and ScanIq. Registers only go 0 -> 1, as in the
    // core while a consumer waits. The ld/st queue spans a full
    // 64-slot mask.
    constexpr unsigned threads = 2;
    constexpr unsigned caps[3] = {12, IssueQueues::maxEntries, 8};
    constexpr unsigned physRegs = 1024;
    constexpr unsigned steps = 6000;
    const OpClass ops[] = {OpClass::IntAlu, OpClass::CondBranch,
                           OpClass::Load, OpClass::Store,
                           OpClass::FpAlu};

    for (unsigned seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        std::mt19937 rng(seed);
        auto rnd = [&rng](unsigned n) {
            return static_cast<unsigned>(rng() % n);
        };
        Rob rob(threads, steps);
        RenameUnit ru(physRegs, physRegs, threads);
        IssueQueues iqs(caps[0], caps[1], caps[2], physRegs, physRegs);
        ScanIq model;

        // Per register class: the registers written back so far
        // (the architectural ones start ready), a few pending ones
        // consumers may wait on, and the next never-used register.
        std::array<std::vector<RegIndex>, 2> ready, pending;
        std::array<RegIndex, 2> fresh{};
        for (unsigned fp = 0; fp < 2; ++fp) {
            unsigned arch = threads * (fp ? numArchFpRegs : numArchIntRegs);
            for (unsigned r = 0; r < arch; ++r)
                ready[fp].push_back(static_cast<RegIndex>(r));
            fresh[fp] = static_cast<RegIndex>(arch);
            for (unsigned k = 0; k < 6; ++k)
                pending[fp].push_back(fresh[fp]++);
        }
        auto source = [&](unsigned fp) {
            unsigned kind = rnd(3);
            if (kind == 0)
                return invalidReg;
            const auto &pool = kind == 1 ? ready[fp] : pending[fp];
            return pool[rnd(static_cast<unsigned>(pool.size()))];
        };

        for (unsigned step = 0; step < steps; ++step) {
            unsigned action = rnd(10);
            if (action < 4) {
                ThreadID tid = static_cast<ThreadID>(rnd(threads));
                DynInst &d = rob.create(tid);
                d.op = ops[rnd(5)];
                IqClass c = iqClassFor(d.op);
                ASSERT_EQ(iqs.hasSpace(c),
                          model.q[int(c)].size() < caps[int(c)]);
                if (!iqs.hasSpace(c))
                    continue;
                unsigned fp = usesFpRegs(d.op) ? 1 : 0;
                d.physSrc1 = source(fp);
                d.physSrc2 = rnd(4) == 0 ? d.physSrc1 : source(fp);
                iqs.insert(&d, ru);
                model.insert(&d);
            } else if (action < 6) {
                unsigned fp = rnd(2);
                auto &p = pending[fp];
                unsigned k = rnd(static_cast<unsigned>(p.size()));
                RegIndex reg = p[k];
                iqs.markReady(ru, reg, fp == 1);
                ready[fp].push_back(reg);
                p[k] = fresh[fp]++;
                ASSERT_LT(static_cast<unsigned>(fresh[fp]), physRegs);
            } else if (action < 7) {
                const auto &v = model.q[rnd(3)];
                if (v.empty())
                    continue;
                const DynInst *victim =
                    v[rnd(static_cast<unsigned>(v.size()))];
                unsigned keep = rnd(3);
                InstSeqNum seq =
                    victim->seq > keep ? victim->seq - keep - 1 : 0;
                iqs.squash(victim->tid, seq);
                model.squash(victim->tid, seq);
            } else {
                const unsigned limit[3] = {rnd(5), rnd(5), rnd(4)};
                std::vector<DynInst *> got, want;
                iqs.pickReady(limit[0], limit[1], limit[2], got);
                model.pick(ru, limit, want);
                ASSERT_EQ(got, want) << "step " << step;
            }

            ASSERT_EQ(iqs.hasReady(), model.hasReady(ru)) << step;
            unsigned total = 0;
            for (unsigned c = 0; c < 3; ++c) {
                ASSERT_EQ(iqs.occupancy(static_cast<IqClass>(c)),
                          model.q[c].size());
                total += static_cast<unsigned>(model.q[c].size());
            }
            ASSERT_EQ(iqs.totalOccupancy(), total);
            for (unsigned t = 0; t < threads; ++t) {
                unsigned n = 0;
                for (const auto &v : model.q)
                    for (const DynInst *d : v)
                        n += d->tid == static_cast<ThreadID>(t);
                ASSERT_EQ(iqs.threadOccupancy(static_cast<ThreadID>(t)),
                          n);
            }

            if (step == steps / 2) {
                // Save in age order (the byte layout the scan model
                // implies) and continue on a restored copy.
                CheckpointWriter w("model", "key");
                w.begin("core.iq");
                iqs.save(w);
                w.end();
                const std::string bytes = w.finish();
                ASSERT_EQ(bytes, saveScanIq(model));
                CheckpointReader r(bytes, "model");
                r.begin("core.iq");
                IssueQueues restored(caps[0], caps[1], caps[2],
                                     physRegs, physRegs);
                restored.restore(r, rob, ru);
                r.end();
                iqs = restored;
            }
        }
    }
}

} // namespace
} // namespace smt
