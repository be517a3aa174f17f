/**
 * @file
 * Tests for the synthetic workload substrate: branch/memory behaviour
 * models, benchmark profiles, program builder and trace streams.
 * Includes the Table 1 calibration property (dynamic basic-block size
 * within tolerance for all 12 SPECint2000 models).
 */

#include <map>
#include <set>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "workload/branch_model.hh"
#include "workload/memory_model.hh"
#include "workload/profiles.hh"
#include "workload/program_builder.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"
#include "workload/workloads.hh"

namespace smt
{
namespace
{

/**
 * A model table's observable content: each model's first draws from a
 * copy (which depend on its whole static shape), then the checkpoint
 * bytes of its mutable state after those draws.
 */
template <typename Model, typename Draw>
std::string
modelFingerprint(const std::vector<Model> &models, Draw draw)
{
    CheckpointWriter w("<image-test>", "models");
    w.begin("models");
    for (Model m : models) {
        for (int i = 0; i < 8; ++i)
            w.u64(draw(m, i));
        m.save(w);
    }
    w.end();
    return w.finish();
}

std::string
branchFingerprint(const BenchmarkImage &img)
{
    return modelFingerprint(img.branchModels, [](BranchModel &m, int i) {
        return std::uint64_t(m.next(0x5a5aULL * i, 0x1234ULL << i));
    });
}

std::string
indirectFingerprint(const BenchmarkImage &img)
{
    return modelFingerprint(img.indirectModels,
                            [](IndirectModel &m, int) { return m.next(); });
}

std::string
memoryFingerprint(const BenchmarkImage &img)
{
    return modelFingerprint(img.memModels,
                            [](MemoryModel &m, int) { return m.next(); });
}

/** EXPECT two images equal in every field. */
void
expectSameImage(const BenchmarkImage &a, const BenchmarkImage &b)
{
    SCOPED_TRACE(a.profile.name);
    EXPECT_EQ(a.profile.name, b.profile.name);
    EXPECT_EQ(a.program.name(), b.program.name());
    EXPECT_EQ(a.program.base(), b.program.base());
    EXPECT_EQ(a.program.entry(), b.program.entry());
    EXPECT_EQ(a.program.numBlocks(), b.program.numBlocks());
    EXPECT_EQ(a.program.numFunctions(), b.program.numFunctions());
    ASSERT_EQ(a.program.numInsts(), b.program.numInsts());
    for (Addr pc = a.program.base(); pc < a.program.limit();
         pc += instBytes) {
        const StaticInst &x = *a.program.lookup(pc);
        const StaticInst &y = *b.program.lookup(pc);
        ASSERT_TRUE(x.pc == y.pc && x.op == y.op && x.src1 == y.src1 &&
                    x.src2 == y.src2 && x.dst == y.dst &&
                    x.target == y.target && x.modelId == y.modelId &&
                    x.blockIndex == y.blockIndex)
            << "static instructions differ at pc 0x" << std::hex << pc;
    }
    ASSERT_EQ(a.branchModels.size(), b.branchModels.size());
    ASSERT_EQ(a.indirectModels.size(), b.indirectModels.size());
    ASSERT_EQ(a.memModels.size(), b.memModels.size());
    EXPECT_EQ(branchFingerprint(a), branchFingerprint(b));
    EXPECT_EQ(indirectFingerprint(a), indirectFingerprint(b));
    EXPECT_EQ(memoryFingerprint(a), memoryFingerprint(b));
    EXPECT_EQ(a.dataBase, b.dataBase);
    EXPECT_EQ(a.dataBytes, b.dataBytes);
    EXPECT_EQ(a.sizeScale, b.sizeScale);
}

/** A fresh calibration of the image a workload thread was given. */
BenchmarkImage
freshBuild(const BenchmarkImage &img, std::uint64_t seed)
{
    return buildImage(profileFor(img.profile.name), img.program.base(),
                      img.dataBase, seed);
}

TEST(BranchModelTest, BiasedRateMatches)
{
    BranchModel m = BranchModel::makeBiased(0.9, 123);
    int taken = 0;
    for (int i = 0; i < 20000; ++i)
        taken += m.next(0, 0);
    EXPECT_NEAR(taken / 20000.0, 0.9, 0.02);
    EXPECT_NEAR(m.expectedTakenRate(), 0.9, 1e-6);
}

TEST(BranchModelTest, LoopPattern)
{
    BranchModel m = BranchModel::makeLoop(4);
    // taken, taken, taken, not-taken, repeating
    for (int rep = 0; rep < 5; ++rep) {
        EXPECT_TRUE(m.next(0, 0));
        EXPECT_TRUE(m.next(0, 0));
        EXPECT_TRUE(m.next(0, 0));
        EXPECT_FALSE(m.next(0, 0));
    }
    EXPECT_DOUBLE_EQ(m.expectedTakenRate(), 0.75);
}

TEST(BranchModelTest, CorrelatedIsDeterministicInHistory)
{
    BranchModel a = BranchModel::makeCorrelated(4, 99);
    BranchModel b = BranchModel::makeCorrelated(4, 99);
    for (std::uint64_t h = 0; h < 64; ++h)
        EXPECT_EQ(a.next(h, 0), b.next(h, 0));
}

TEST(BranchModelTest, CorrelatedIgnoresBitsBeyondWindow)
{
    BranchModel a = BranchModel::makeCorrelated(3, 7);
    BranchModel b = BranchModel::makeCorrelated(3, 7);
    // Same low 3 bits, different high bits: same outcome.
    EXPECT_EQ(a.next(0b101, 0), b.next(0b11111101, 0));
}

TEST(BranchModelTest, PathCorrelatedDeterministic)
{
    BranchModel a = BranchModel::makeCorrelatedPath(1, 5);
    BranchModel b = BranchModel::makeCorrelatedPath(1, 5);
    for (std::uint64_t sig = 0; sig < 32; ++sig)
        EXPECT_EQ(a.next(0, sig), b.next(0, sig));
}

TEST(BranchModelTest, RandomIsFair)
{
    BranchModel m = BranchModel::makeRandom(42);
    int taken = 0;
    for (int i = 0; i < 20000; ++i)
        taken += m.next(0, 0);
    EXPECT_NEAR(taken / 20000.0, 0.5, 0.02);
}

TEST(IndirectModelTest, DominantTarget)
{
    IndirectModel m({0x100, 0x200, 0x300}, 0.8, 7);
    int dominant = 0;
    std::set<Addr> seen;
    for (int i = 0; i < 10000; ++i) {
        Addr t = m.next();
        seen.insert(t);
        dominant += t == 0x100;
    }
    EXPECT_NEAR(dominant / 10000.0, 0.8, 0.03);
    EXPECT_GE(seen.size(), 2u);
}

TEST(MemoryModelTest, StrideWalksRegion)
{
    MemoryModel m = MemoryModel::makeStride(0x1000, 256, 8);
    Addr first = m.next();
    EXPECT_EQ(first, 0x1000u);
    EXPECT_EQ(m.next(), 0x1008u);
    // Wraps within the region.
    for (int i = 0; i < 100; ++i) {
        Addr a = m.next();
        EXPECT_GE(a, 0x1000u);
        EXPECT_LT(a, 0x1100u);
    }
}

TEST(MemoryModelTest, RandomStaysInRegionAndFavorsHot)
{
    MemoryModel m =
        MemoryModel::makeRandom(0x10000, 1 << 20, 16 * 1024, 0.8, 3);
    int hot = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr a = m.next();
        EXPECT_GE(a, 0x10000u);
        EXPECT_LT(a, 0x10000u + (1u << 20));
        hot += a < 0x10000u + 16 * 1024;
    }
    // At least hotProb of accesses in the hot subset (plus cold ones
    // that land there by chance).
    EXPECT_GT(hot / 20000.0, 0.75);
}

TEST(MemoryModelTest, AddressesAligned)
{
    MemoryModel m =
        MemoryModel::makeChase(0x10000, 1 << 20, 8192, 0.5, 11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(m.next() % 8, 0u);
}

TEST(ProfilesTest, AllTwelveBenchmarks)
{
    EXPECT_EQ(allProfiles().size(), 12u);
    std::set<std::string> names;
    for (const auto &p : allProfiles())
        names.insert(p.name);
    EXPECT_EQ(names.size(), 12u);
    EXPECT_TRUE(names.count("gzip"));
    EXPECT_TRUE(names.count("twolf"));
}

TEST(ProfilesTest, ClassesMatchPaper)
{
    EXPECT_EQ(profileFor("mcf").benchClass, BenchClass::MEM);
    EXPECT_EQ(profileFor("twolf").benchClass, BenchClass::MEM);
    EXPECT_EQ(profileFor("vpr").benchClass, BenchClass::MEM);
    EXPECT_EQ(profileFor("gzip").benchClass, BenchClass::ILP);
    EXPECT_EQ(profileFor("eon").benchClass, BenchClass::ILP);
}

TEST(ProfilesTest, Table1BlockSizes)
{
    EXPECT_NEAR(profileFor("gzip").avgBlockSize, 11.02, 1e-9);
    EXPECT_NEAR(profileFor("mcf").avgBlockSize, 3.92, 1e-9);
    EXPECT_NEAR(profileFor("gcc").avgBlockSize, 5.76, 1e-9);
    EXPECT_NEAR(profileFor("twolf").avgBlockSize, 8.00, 1e-9);
}

TEST(BuilderTest, DeterministicForSameSeed)
{
    auto a = buildImage(profileFor("gzip"), 0x400000, 0x40000000, 1);
    auto b = buildImage(profileFor("gzip"), 0x400000, 0x40000000, 1);
    expectSameImage(a, b);
}

TEST(BuilderTest, CalibratedImageIsOnePassAtItsScale)
{
    auto a = buildImage(profileFor("mcf"), 0x400000, 0x40000000, 3);
    auto b = buildImageAtScale(profileFor("mcf"), 0x400000, 0x40000000, 3,
                               a.sizeScale);
    expectSameImage(a, b);
}

TEST(BuilderTest, ProgramsAreSubstantial)
{
    auto img = buildImage(profileFor("gcc"), 0x400000, 0x40000000);
    // ~160KB of code.
    EXPECT_GT(img.program.numInsts(), 20'000u);
    EXPECT_GT(img.program.numBlocks(), 2'000u);
    EXPECT_GT(img.program.numFunctions(), 50u);
    EXPECT_FALSE(img.branchModels.empty());
    EXPECT_FALSE(img.memModels.empty());
}

TEST(BuilderTest, EveryCtiHasValidTarget)
{
    auto img = buildImage(profileFor("vortex"), 0x400000, 0x40000000);
    const auto &prog = img.program;
    for (std::size_t i = 0; i < prog.numInsts(); ++i) {
        Addr pc = prog.base() + i * instBytes;
        const StaticInst *si = prog.lookup(pc);
        ASSERT_NE(si, nullptr);
        if (si->op == OpClass::CondBranch ||
            si->op == OpClass::Jump ||
            si->op == OpClass::CallDirect) {
            EXPECT_TRUE(prog.contains(si->target))
                << "CTI at " << std::hex << pc;
        }
    }
}

/** Table 1 calibration: the property the substitution relies on. */
class Table1Calibration
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Table1Calibration, DynamicBlockSizeNearPaperValue)
{
    const auto &prof = profileFor(GetParam());
    auto img = buildImage(prof, 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    for (int i = 0; i < 300'000; ++i)
        trace.next();
    double measured = trace.stats().avgBlockSize();
    EXPECT_NEAR(measured, prof.avgBlockSize,
                prof.avgBlockSize * 0.25)
        << prof.name << ": measured " << measured << " vs Table 1 "
        << prof.avgBlockSize;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, Table1Calibration,
                         ::testing::Values("gzip", "vpr", "gcc", "mcf",
                                           "crafty", "parser", "eon",
                                           "perlbmk", "gap", "vortex",
                                           "bzip2", "twolf"));

TEST(TraceTest, InfiniteAndDeterministic)
{
    auto img = buildImage(profileFor("gzip"), 0x400000, 0x40000000);
    SyntheticTraceStream a(img), b(img);
    for (int i = 0; i < 50'000; ++i) {
        TraceRecord ra = a.next();
        TraceRecord rb = b.next();
        ASSERT_EQ(ra.pc(), rb.pc());
        ASSERT_EQ(ra.taken, rb.taken);
        ASSERT_EQ(ra.nextPc, rb.nextPc);
        ASSERT_EQ(ra.memAddr, rb.memAddr);
    }
}

TEST(TraceTest, NextPcChainsConsistently)
{
    auto img = buildImage(profileFor("parser"), 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    TraceRecord prev = trace.next();
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord cur = trace.next();
        ASSERT_EQ(cur.pc(), prev.nextPc);
        prev = cur;
    }
}

TEST(TraceTest, MemoryAddressesOnlyOnMemoryOps)
{
    auto img = buildImage(profileFor("mcf"), 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord r = trace.next();
        if (r.si->isMemory()) {
            EXPECT_NE(r.memAddr, invalidAddr);
            EXPECT_GE(r.memAddr, img.dataBase);
        } else {
            EXPECT_EQ(r.memAddr, invalidAddr);
        }
    }
}

TEST(TraceTest, TakenCtisMatchControlFlow)
{
    auto img = buildImage(profileFor("eon"), 0x400000, 0x40000000);
    SyntheticTraceStream trace(img);
    for (int i = 0; i < 20'000; ++i) {
        TraceRecord r = trace.next();
        if (!r.si->isControl()) {
            EXPECT_FALSE(r.taken);
            EXPECT_EQ(r.nextPc, r.pc() + instBytes);
        } else if (r.taken && r.si->isConditional()) {
            // Taken conditionals go to their static target (which may
            // legitimately equal the fall-through for a branch to the
            // next block).
            EXPECT_EQ(r.nextPc, r.si->target);
        }
    }
}

TEST(WorkloadsTest, Table2Definitions)
{
    EXPECT_EQ(table2Workloads().size(), 10u);
    EXPECT_EQ(workloadFor("2_MIX").benchmarks,
              (std::vector<std::string>{"gzip", "twolf"}));
    EXPECT_EQ(workloadFor("8_ILP").benchmarks.size(), 8u);
    EXPECT_EQ(workloadFor("4_MEM").benchmarks,
              (std::vector<std::string>{"mcf", "twolf", "vpr",
                                        "perlbmk"}));
}

TEST(WorkloadsTest, BuildWorkloadDisjointAddressSpaces)
{
    WorkloadImages w = buildWorkload(workloadFor("4_MIX"));
    ASSERT_EQ(w.numThreads(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = i + 1; j < 4; ++j) {
            const auto &a = *w.images[i];
            const auto &b = *w.images[j];
            bool code_disjoint = a.program.limit() <= b.program.base() ||
                                 b.program.limit() <= a.program.base();
            bool data_disjoint =
                a.dataBase + a.dataBytes <= b.dataBase ||
                b.dataBase + b.dataBytes <= a.dataBase;
            EXPECT_TRUE(code_disjoint);
            EXPECT_TRUE(data_disjoint);
        }
    }
}

TEST(WorkloadsTest, SingleWorkloadHelper)
{
    WorkloadImages w = buildSingle("gzip");
    EXPECT_EQ(w.numThreads(), 1u);
    EXPECT_EQ(w.images[0]->profile.name, "gzip");
}

TEST(WorkloadsTest, RememberedCalibrationMatchesAFreshOne)
{
    // The first build of each workload calibrates (or hits scales an
    // earlier test left); the second is a memo hit for every thread.
    // Both must equal a fresh calibration. Thread slots repeat across
    // the Table 2 mixes, so each distinct image is built fresh once.
    using Key = std::tuple<std::string, Addr, Addr>;
    std::map<Key, BenchmarkImage> fresh;
    for (const auto &spec : table2Workloads()) {
        SCOPED_TRACE(spec.name);
        WorkloadImages first = buildWorkload(spec);
        WorkloadImages second = buildWorkload(spec);
        ASSERT_EQ(second.numThreads(), spec.benchmarks.size());
        for (unsigned t = 0; t < second.numThreads(); ++t) {
            const BenchmarkImage &img = *second.images[t];
            Key key{img.profile.name, img.program.base(), img.dataBase};
            auto it = fresh.find(key);
            if (it == fresh.end())
                it = fresh.emplace(key, freshBuild(img, 0)).first;
            expectSameImage(it->second, img);
            expectSameImage(*first.images[t], img);
        }
    }
}

TEST(WorkloadsTest, ReplayedThreadGetsTheRecordedImage)
{
    WorkloadSpec spec = workloadFor("2_MIX");
    const std::uint64_t seed = 5;
    WorkloadImages synthetic = buildWorkload(spec, seed);

    // Record a few records of thread 1 (twolf) against its image.
    const BenchmarkImage &img = *synthetic.images[1];
    const std::string path = ::testing::TempDir() + "memo_twolf.trc";
    {
        TraceFileHeader hdr;
        hdr.benchmark = img.profile.name;
        hdr.seed = seed;
        hdr.codeBase = img.program.base();
        hdr.dataBase = img.dataBase;
        TraceWriter writer(path, hdr);
        SyntheticTraceStream stream(img);
        stream.setRecorder(&writer);
        for (int i = 0; i < 100; ++i)
            stream.next();
        writer.close();
    }

    spec.traces = {"", path};
    WorkloadImages replayed = buildWorkload(spec, seed);
    ASSERT_EQ(replayed.numThreads(), 2u);
    expectSameImage(*synthetic.images[0], *replayed.images[0]);
    expectSameImage(*synthetic.images[1], *replayed.images[1]);
    expectSameImage(freshBuild(img, seed), *replayed.images[1]);
}

TEST(WorkloadsTest, ConcurrentCalibrationMatchesASerialBuild)
{
    // No other test builds at this seed, so the memo starts cold for
    // every image here and the four threads race to calibrate them.
    const std::uint64_t seed = 0xc0ffee;
    const std::vector<std::string> names = {"8_ILP", "8_MIX"};
    std::vector<std::vector<WorkloadImages>> built(4);
    std::vector<std::thread> threads;
    for (auto &out : built)
        threads.emplace_back([&names, &out, seed] {
            for (const auto &name : names)
                out.push_back(buildWorkload(workloadFor(name), seed));
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t w = 0; w < names.size(); ++w) {
        SCOPED_TRACE(names[w]);
        const WorkloadImages &ref = built[0][w];
        for (unsigned t = 0; t < ref.numThreads(); ++t) {
            BenchmarkImage serial = freshBuild(*ref.images[t], seed);
            for (const auto &out : built)
                expectSameImage(serial, *out[w].images[t]);
        }
    }
}

} // namespace
} // namespace smt
