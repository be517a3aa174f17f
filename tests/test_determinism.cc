/**
 * @file
 * Determinism regression tests: two simulations with the same seed
 * and configuration must produce bit-identical StatsRegistry dumps
 * (text and JSON), and two sweeps of the same request must render
 * byte-identical BENCH records.
 */

#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bpred/engine_registry.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"

namespace smt
{
namespace
{

SimConfig
smallConfig(const std::string &wl, EngineKind e, unsigned n, unsigned x,
            std::uint64_t seed)
{
    SimConfig cfg = table3Config(wl, e, n, x);
    cfg.warmupCycles = 5'000;
    cfg.measureCycles = 30'000;
    cfg.seed = seed;
    return cfg;
}

TEST(Determinism, IdenticalSeedsBitIdenticalRegistryDumps)
{
    // Every registered engine, zoo included — a new registration is
    // covered with no test edit.
    for (EngineKind e : allEngines()) {
        SimConfig cfg = smallConfig("2_MIX", e, 2, 8, 42);

        Simulator a(cfg);
        a.run();
        Simulator b(cfg);
        b.run();

        EXPECT_EQ(a.registry().textString(), b.registry().textString())
            << "engine " << engineName(e);
        EXPECT_EQ(a.registry().jsonString(), b.registry().jsonString())
            << "engine " << engineName(e);

        // Sanity: the run did real work.
        EXPECT_GT(a.registry().value("commit.insts"), 1'000.0);
    }
}

TEST(Determinism, BenchRecordIsByteReproducible)
{
    // Warmup sharing on, with a duplicated point, so the record also
    // carries a warmupReuse block with a restore in it. Each record
    // starts from an empty snapshot directory: a warm one would serve
    // every warmup from disk and change the counts.
    SweepRequest req;
    req.warmupCycles = 1'500;
    req.measureCycles = 4'000;
    req.checkpointDir = ::testing::TempDir() + "det_ckpt";
    for (const char *wl : {"gzip", "gzip", "mcf"}) {
        GridPoint p;
        p.workload = wl;
        p.engine = EngineKind::GshareBtb;
        p.fetchThreads = 1;
        p.fetchWidth = 8;
        req.points.push_back(p);
    }

    auto record = [&req] {
        std::filesystem::remove_all(req.checkpointDir);
        std::filesystem::create_directories(req.checkpointDir);
        SweepReport report = ExperimentRunner().run(req);
        std::ostringstream os;
        ExperimentRunner::writeJson(os, "det", report.results, {},
                                    &report.timing);
        return os.str();
    };
    std::string first = record();
    EXPECT_NE(first.find("\"warmupReuse\""), std::string::npos);
    EXPECT_NE(first.find("\"restoredRuns\": 1"), std::string::npos);
    EXPECT_EQ(record(), first);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    Simulator a(smallConfig("2_MIX", EngineKind::Stream, 1, 16, 1));
    a.run();
    Simulator b(smallConfig("2_MIX", EngineKind::Stream, 1, 16, 2));
    b.run();
    EXPECT_NE(a.registry().jsonString(), b.registry().jsonString());
}

TEST(Determinism, RegistryAgreesWithSimStatsView)
{
    Simulator sim(smallConfig("4_MIX", EngineKind::Stream, 2, 8, 7));
    sim.run();
    const SimStats &s = sim.stats();
    const StatsRegistry &reg = sim.registry();

    EXPECT_EQ(reg.value("sim.cycles"),
              static_cast<double>(s.cycles));
    EXPECT_EQ(reg.value("commit.insts"),
              static_cast<double>(s.instsCommitted));
    EXPECT_EQ(reg.value("fetch.insts"),
              static_cast<double>(s.instsFetched));
    EXPECT_DOUBLE_EQ(reg.value("sim.ipc"), s.ipc());
    EXPECT_DOUBLE_EQ(reg.value("sim.ipfc"), s.ipfc());
    for (unsigned t = 0; t < 4; ++t) {
        EXPECT_EQ(reg.value(csprintf("commit.thread%u.insts", t)),
                  static_cast<double>(s.threadCommitted[t]));
    }
}

TEST(Determinism, ResetStatsClearsMeasuredWindow)
{
    Simulator sim(smallConfig("2_MIX", EngineKind::Stream, 1, 8, 3));
    sim.run();
    double committed = sim.registry().value("commit.insts");
    EXPECT_GT(committed, 0.0);
    sim.core().resetStats();
    EXPECT_EQ(sim.registry().value("commit.insts"), 0.0);
    EXPECT_EQ(sim.registry().value("sim.cycles"), 0.0);
    sim.runExtra(5'000);
    EXPECT_GT(sim.registry().value("commit.insts"), 0.0);
    EXPECT_LT(sim.registry().value("commit.insts"), committed);
}

} // namespace
} // namespace smt
