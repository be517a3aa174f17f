/**
 * @file
 * Tests for the branch-prediction substrate: histories, RAS, direction
 * predictors, BTB/FTB/stream tables and the three fetch engines.
 */

#include <gtest/gtest.h>

#include "bpred/assoc_table.hh"
#include "bpred/engine_registry.hh"
#include "bpred/fetch_engine.hh"
#include "bpred/tage.hh"
#include "util/bitfield.hh"
#include "workload/program_builder.hh"
#include "workload/trace.hh"

namespace smt
{
namespace
{

TEST(GlobalHistoryTest, ShiftAndRestore)
{
    GlobalHistory h;
    h.shift(true);
    h.shift(false);
    h.shift(true);
    EXPECT_EQ(h.value() & 0x7, 0b101u);
    auto snap = h.snapshot();
    h.shift(true);
    h.restore(snap);
    EXPECT_EQ(h.value() & 0x7, 0b101u);
}

TEST(PathHistoryTest, IndexDependsOnPath)
{
    PathHistory p(16, 2, 4, 10);
    std::uint64_t base = p.index(0x4000, 10);
    p.push(0x1234);
    std::uint64_t after = p.index(0x4000, 10);
    EXPECT_NE(base, after);
}

TEST(PathHistoryTest, SnapshotRestoreExact)
{
    PathHistory p(8, 2, 4, 10);
    for (Addr a = 0; a < 20; ++a)
        p.push(0x1000 + a * 64);
    auto snap = p.snapshot();
    std::uint64_t idx = p.index(0x8888, 12);
    p.push(0xdead);
    EXPECT_NE(p.index(0x8888, 12), idx);
    p.restore(snap);
    EXPECT_EQ(p.index(0x8888, 12), idx);
}

/** The DOLC index as a modulo per history entry: the formula
 *  PathHistory::index steps through without dividing. */
std::uint64_t
referencePathIndex(const PathHistory::Snapshot &s, unsigned depth,
                   unsigned older_bits, unsigned last_bits,
                   unsigned current_bits, Addr current,
                   unsigned index_bits)
{
    std::uint64_t idx = bits(current >> 2, 0, current_bits);
    unsigned rot = current_bits > 4 ? current_bits - 4 : 1;
    unsigned p = s.pos;
    idx ^= bits(s.ring[p] >> 2, 0, last_bits) << (rot % index_bits);
    for (unsigned i = 1; i < depth; ++i) {
        unsigned q = (p + depth - i) % depth;
        std::uint64_t contrib = bits(s.ring[q] >> 2, 0, older_bits);
        idx ^= contrib << ((rot + i * older_bits) % index_bits);
    }
    return idx & mask(index_bits);
}

TEST(PathHistoryTest, IndexMatchesModuloFormula)
{
    // Depths 1-16 and several older/last/current widths, with index
    // widths both above and below olderBits (the shift step wraps
    // more than once per entry there).
    const unsigned widths[][3] = {
        {2, 4, 10}, {1, 3, 6}, {3, 5, 12}, {7, 8, 16}, {12, 12, 20}};
    const unsigned index_widths[] = {3, 4, 5, 8, 10, 11, 12, 16, 24};
    std::uint64_t rng = 0x2545f4914f6cdd1dULL;
    auto next = [&rng]() {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return rng >> 16;
    };
    for (unsigned depth = 1; depth <= PathHistory::maxDepth; ++depth) {
        for (const auto &w : widths) {
            PathHistory p(depth, w[0], w[1], w[2]);
            for (unsigned pushes = 0; pushes < 2 * depth + 3; ++pushes) {
                for (unsigned ib : index_widths) {
                    Addr pc = next();
                    PathHistory::Snapshot s = p.snapshot();
                    std::uint64_t want = referencePathIndex(
                        s, depth, w[0], w[1], w[2], pc, ib);
                    ASSERT_EQ(p.index(pc, ib), want)
                        << depth << "-" << w[0] << ", " << ib << " bits";
                }
                p.push(next());
            }
        }
    }
}

TEST(RasTest, PushPopLifo)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(RasTest, SnapshotRepairsSingleDivergence)
{
    ReturnAddressStack ras(16);
    ras.push(0x100);
    ras.push(0x200);
    auto snap = ras.snapshot();
    // Wrong path: pops then pushes garbage.
    ras.pop();
    ras.push(0xbad);
    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(RasTest, DeepRestoreRepairsEntriesBelowTopOfStack)
{
    // Regression: wrong-path pops below the snapshot's TOS followed
    // by a push overwrite entries *deeper* than the snapshot
    // position. A (tos, top-value) checkpoint cannot repair them;
    // the full-stack snapshot must.
    ReturnAddressStack ras(16);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    auto snap = ras.snapshot();

    // Wrong path: three pops walk below the checkpointed TOS, then a
    // push clobbers the slot that held 0x200.
    ras.pop();
    ras.pop();
    ras.pop();
    ras.push(0xbad);

    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(RasTest, DeepRestoreAcrossWrapAround)
{
    ReturnAddressStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10); // wraps; stack holds 0x30..0x60
    auto snap = ras.snapshot();

    ras.pop();
    ras.pop();
    ras.push(0xdead);
    ras.push(0xbeef);

    ras.restore(snap);
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
    EXPECT_EQ(ras.pop(), 0x40u);
    EXPECT_EQ(ras.pop(), 0x30u);
}

TEST(RasTest, WrapsAtCapacity)
{
    ReturnAddressStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10);
    // Oldest entries overwritten; newest still correct.
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
}

TEST(AssocTableTest, LruEviction)
{
    AssocTable<int> table(8, 2); // 4 sets x 2 ways
    table.insert(0, 1, 11);
    table.insert(0, 2, 22);
    EXPECT_NE(table.lookup(0, 1), nullptr); // touch 1 -> 2 becomes LRU
    table.insert(0, 3, 33);                 // evicts 2
    EXPECT_EQ(table.lookup(0, 2), nullptr);
    EXPECT_NE(table.lookup(0, 1), nullptr);
    EXPECT_EQ(*table.lookup(0, 3), 33);
}

TEST(AssocTableTest, InsertOverwritesSameTag)
{
    AssocTable<int> table(8, 2);
    table.insert(1, 7, 70);
    table.insert(1, 7, 71);
    EXPECT_EQ(*table.lookup(1, 7), 71);
}

TEST(GshareTest, LearnsBiasedBranch)
{
    GsharePredictor pred(1024, 8);
    for (int i = 0; i < 20; ++i)
        pred.update(0x4000, 0xab, true);
    EXPECT_TRUE(pred.predict(0x4000, 0xab));
    for (int i = 0; i < 20; ++i)
        pred.update(0x4000, 0xab, false);
    EXPECT_FALSE(pred.predict(0x4000, 0xab));
}

TEST(GshareTest, LearnsHistoryPattern)
{
    GsharePredictor pred(4096, 8);
    // Branch taken iff history bit 0 set.
    for (int i = 0; i < 200; ++i) {
        std::uint64_t h = i & 0xff;
        pred.update(0x5000, h, h & 1);
    }
    EXPECT_TRUE(pred.predict(0x5000, 0x11));
    EXPECT_FALSE(pred.predict(0x5000, 0x10));
}

TEST(GskewTest, MajorityVoteLearns)
{
    GskewPredictor pred(1024, 8);
    for (int i = 0; i < 30; ++i)
        pred.update(0x4000, 0x3c, true);
    EXPECT_TRUE(pred.predict(0x4000, 0x3c));
}

TEST(GskewTest, ResistsAliasingBetterThanSingleTable)
{
    // Two branches with identical gshare index collide; gskew's
    // skewed banks keep them apart.
    GsharePredictor gshare(256, 8);
    GskewPredictor gskew(256, 8);
    Addr pc_a = 0x1000, pc_b = 0x1000 + 256 * 4; // same gshare index
    std::uint64_t h = 0;
    int gshare_wrong = 0, gskew_wrong = 0;
    for (int i = 0; i < 400; ++i) {
        gshare_wrong += gshare.predict(pc_a, h) != true;
        gskew_wrong += gskew.predict(pc_a, h) != true;
        gshare.update(pc_a, h, true);
        gskew.update(pc_a, h, true);
        gshare_wrong += gshare.predict(pc_b, h) != false;
        gskew_wrong += gskew.predict(pc_b, h) != false;
        gshare.update(pc_b, h, false);
        gskew.update(pc_b, h, false);
    }
    EXPECT_LT(gskew_wrong, gshare_wrong);
}

TEST(BtbTest, StoresTargetsAndTypes)
{
    Btb btb(64, 4);
    EXPECT_EQ(btb.lookup(0x4000), nullptr);
    btb.update(0x4000, 0x5000, OpClass::CallDirect);
    const BtbEntry *e = btb.lookup(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->target, 0x5000u);
    EXPECT_EQ(e->ctiType, OpClass::CallDirect);
}

TEST(FtbTest, BlockGeometry)
{
    Ftb ftb(64, 4, 32);
    EXPECT_TRUE(ftb.update(0x4000, 10, 0x8000, OpClass::CondBranch));
    const FtbEntry *e = ftb.lookup(0x4000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->endPc(0x4000), 0x4000u + 9 * 4);
    EXPECT_EQ(e->fallThrough(0x4000), 0x4000u + 10 * 4);
    EXPECT_EQ(e->target, 0x8000u);
}

TEST(FtbTest, RejectsOversizeBlocks)
{
    Ftb ftb(64, 4, 16);
    EXPECT_FALSE(ftb.update(0x4000, 17, 0x8000, OpClass::CondBranch));
    EXPECT_FALSE(ftb.update(0x4000, 0, 0x8000, OpClass::CondBranch));
    EXPECT_EQ(ftb.lookup(0x4000), nullptr);
}

TEST(StreamPredTest, LearnsStream)
{
    StreamPredictor sp(64, 4, 256, 4, 64);
    PathHistory path;
    sp.update(0x4000, 12, 0x9000, OpClass::CondBranch, path);
    StreamPrediction p = sp.predict(0x4000, path);
    ASSERT_TRUE(p.hit);
    EXPECT_EQ(p.entry.lengthInsts, 12u);
    EXPECT_EQ(p.entry.target, 0x9000u);
}

TEST(StreamPredTest, HysteresisResistsOneOffChange)
{
    StreamPredictor sp(64, 4, 256, 4, 64);
    PathHistory path;
    for (int i = 0; i < 4; ++i)
        sp.update(0x4000, 12, 0x9000, OpClass::CondBranch, path);
    // One conflicting observation followed by re-confirmation must
    // not displace the established stream.
    sp.update(0x4000, 20, 0xa000, OpClass::CondBranch, path);
    sp.update(0x4000, 12, 0x9000, OpClass::CondBranch, path);
    sp.update(0x4000, 12, 0x9000, OpClass::CondBranch, path);
    StreamPrediction p = sp.predict(0x4000, path);
    ASSERT_TRUE(p.hit);
    EXPECT_EQ(p.entry.target, 0x9000u);
}

TEST(StreamPredTest, PathDisambiguatesInSecondLevel)
{
    StreamPredictor sp(64, 4, 256, 4, 64);
    PathHistory path_a, path_b;
    path_a.push(0x111004);
    path_b.push(0x222028);
    // Same start, two different shapes under two paths; the L1 entry
    // flip-flops but the L2 keeps both.
    for (int i = 0; i < 6; ++i) {
        sp.update(0x4000, 8, 0x9000, OpClass::CondBranch, path_a);
        sp.update(0x4000, 24, 0xb000, OpClass::CondBranch, path_b);
    }
    StreamPrediction pa = sp.predict(0x4000, path_a);
    StreamPrediction pb = sp.predict(0x4000, path_b);
    ASSERT_TRUE(pa.hit);
    ASSERT_TRUE(pb.hit);
    EXPECT_TRUE(pa.fromSecondLevel || pb.fromSecondLevel);
    EXPECT_NE(pa.entry.target, pb.entry.target);
}

TEST(StreamPredTest, RejectsOverlongStreams)
{
    StreamPredictor sp(64, 4, 256, 4, 32);
    PathHistory path;
    EXPECT_FALSE(
        sp.update(0x4000, 33, 0x9000, OpClass::CondBranch, path));
}

// ---------------------------------------------------------------
// Fetch engines against a real synthetic program.
// ---------------------------------------------------------------

class EngineTest : public ::testing::TestWithParam<EngineKind>
{
  protected:
    void
    SetUp() override
    {
        image = std::make_unique<BenchmarkImage>(
            buildImage(profileFor("gzip"), 0x400000, 0x40000000));
        engine = makeEngine(GetParam(), EngineParams{});
        engine->setThreadProgram(0, &image->program);
    }

    std::unique_ptr<BenchmarkImage> image;
    std::unique_ptr<FetchEngine> engine;
};

TEST_P(EngineTest, BlocksChainContiguously)
{
    Addr pc = image->program.entry();
    for (int i = 0; i < 200; ++i) {
        BlockPrediction b = engine->predictBlock(0, pc);
        ASSERT_GT(b.lengthInsts, 0u);
        ASSERT_EQ(b.start, pc);
        ASSERT_NE(b.nextFetchPc, invalidAddr);
        // Not-taken predictions continue sequentially.
        if (!b.predTaken) {
            ASSERT_EQ(b.nextFetchPc, b.fallThrough());
        }
        pc = b.nextFetchPc;
    }
}

TEST_P(EngineTest, CheckpointCarriesBlockStart)
{
    Addr pc = image->program.entry();
    BlockPrediction b = engine->predictBlock(0, pc);
    EXPECT_EQ(b.ckpt.blockStart, pc);
}

TEST_P(EngineTest, RecoveryIsIdempotentOnState)
{
    Addr pc = image->program.entry();
    BlockPrediction b = engine->predictBlock(0, pc);
    // Pretend the block end was a mispredicted conditional.
    const StaticInst *si = image->program.lookup(b.endPc());
    engine->recover(0, b.ckpt, si, /*taken=*/true, b.start + 400);
    // The engine must keep producing sane blocks after recovery.
    BlockPrediction after = engine->predictBlock(0, b.start + 400);
    EXPECT_GT(after.lengthInsts, 0u);
}

TEST_P(EngineTest, CommitTrainingImprovesAccuracy)
{
    // Drive the engine along the correct path; count how often the
    // predicted next-fetch address matches the oracle, early vs late.
    SyntheticTraceStream trace(*image);
    auto run_window = [&](int blocks) {
        int correct = 0;
        for (int i = 0; i < blocks; ++i) {
            Addr start = trace.peekPc();
            BlockPrediction b = engine->predictBlock(0, start);
            // Consume the trace to the end of the block, comparing.
            Addr actual_next = invalidAddr;
            unsigned consumed = 0;
            while (consumed < b.lengthInsts) {
                TraceRecord r = trace.next();
                ++consumed;
                actual_next = r.nextPc;
                if (r.si->isControl()) {
                    bool was_end =
                        r.pc() == b.endPc() && b.endsWithCti;
                    engine->commitCti(0, *r.si, r.taken, r.nextPc,
                                      was_end,
                                      /*mispredicted=*/false,
                                      b.ckpt.ghist);
                    if (r.taken)
                        break; // stream ends here architecturally
                }
            }
            if (b.nextFetchPc == actual_next)
                ++correct;
            // Re-sync like a squash would.
            engine->recover(0, b.ckpt, nullptr, false, invalidAddr);
        }
        return correct;
    };
    int early = run_window(300);
    (void)early;
    int late = run_window(300);
    // After training, the engine should predict block exits with
    // reasonable accuracy.
    EXPECT_GT(late, 120) << engine->name();
}

// Every engine the registry knows, including the zoo — a new
// registration is covered here with no test edit. (Default index
// naming: engine names contain '+', which gtest rejects in test
// names.)
INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::ValuesIn(allEngines()));

TEST(EngineFactoryTest, NamesAndKinds)
{
    for (auto kind : allEngines()) {
        auto e = makeEngine(kind, EngineParams{});
        EXPECT_EQ(e->kind(), kind);
        EXPECT_NE(e->name(), nullptr);
    }
}

TEST(EngineFactoryTest, RegistryRoundTripsEveryEngine)
{
    // resolve(name(e)) == e for every registered engine, plus every
    // alias resolves to the same descriptor.
    const EngineRegistry &reg = EngineRegistry::instance();
    for (auto kind : allEngines()) {
        const EngineDescriptor &d = reg.descriptor(kind);
        const EngineDescriptor *found = reg.find(d.name);
        ASSERT_NE(found, nullptr) << d.name;
        EXPECT_EQ(found->kind, kind) << d.name;
        for (const std::string &alias : d.aliases) {
            const EngineDescriptor *via = reg.find(alias);
            ASSERT_NE(via, nullptr) << alias;
            EXPECT_EQ(via->kind, kind) << alias;
        }
    }
    EXPECT_EQ(reg.find("no-such-engine"), nullptr);
}

EngineParams
smallTageParams()
{
    EngineParams p;
    p.tageBimodalEntries = 1024;
    p.tageTables = 4;
    p.tageEntriesPerTable = 512;
    p.tageTagBits = 8;
    p.tageCounterBits = 3;
    p.tageMinHistory = 4;
    p.tageMaxHistory = 32;
    return p;
}

TEST(TagePredictorTest, LearnsBiasedBranch)
{
    TagePredictor tage(smallTageParams());
    for (int i = 0; i < 20; ++i)
        tage.update(0x4000, 0xab, true);
    EXPECT_TRUE(tage.predict(0x4000, 0xab));
    for (int i = 0; i < 40; ++i)
        tage.update(0x4000, 0xab, false);
    EXPECT_FALSE(tage.predict(0x4000, 0xab));
}

TEST(TagePredictorTest, LearnsLongPeriodicPattern)
{
    // Outcome pattern with period 15: a history window of >= 15
    // outcomes uniquely identifies the phase, so TAGE's longer
    // tables (histories up to 32) learn the pattern near-perfectly
    // while a bimodal counter alone cannot (the pattern is mixed
    // taken/not-taken). The history register is maintained the way
    // the fetch engines do: shift in each outcome.
    EngineParams p = smallTageParams();
    p.tageEntriesPerTable = 1024;
    p.tageTagBits = 10;
    TagePredictor tage(p);
    auto outcome = [](int i) { return i % 3 == 0 || i % 5 == 0; };
    std::uint64_t h = 0;
    for (int i = 0; i < 3000; ++i) {
        tage.update(0x5000, h, outcome(i));
        h = (h << 1) | (outcome(i) ? 1 : 0);
    }
    int correct = 0;
    for (int i = 3000; i < 3400; ++i) {
        if (tage.predict(0x5000, h) == outcome(i))
            ++correct;
        tage.update(0x5000, h, outcome(i));
        h = (h << 1) | (outcome(i) ? 1 : 0);
    }
    EXPECT_GT(correct, 350);
}

TEST(TagePredictorTest, GeometricHistoriesAreStrictlyIncreasing)
{
    EngineParams p = smallTageParams();
    p.tageTables = 6;
    p.tageMaxHistory = 64;
    TagePredictor tage(p);
    EXPECT_EQ(tage.numTables(), 6u);
    unsigned prev = 0;
    for (unsigned t = 0; t < tage.numTables(); ++t) {
        unsigned len = tage.historyLength(t);
        EXPECT_GT(len, prev) << "table " << t;
        EXPECT_LE(len, 64u) << "table " << t;
        prev = len;
    }
    EXPECT_EQ(tage.historyLength(0), 4u);
    EXPECT_EQ(tage.historyLength(tage.numTables() - 1), 64u);
}

} // namespace
} // namespace smt
