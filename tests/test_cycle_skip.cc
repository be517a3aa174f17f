/**
 * @file
 * Event-driven cycle-skipping tests: fast-forwarding quiescent spans
 * must be an invisible speed optimization. Skip-on and skip-off runs
 * are bit-identical (IPFC, IPC, and the full stats dump minus the
 * sim.cycleSkip.* bookkeeping) across every committed grid spec; a
 * checkpoint taken inside a skipped span round-trips exactly; split
 * runs land on the same state as one long run; and the wheel scan
 * itself reports the right wake-up cycles.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exec.hh"
#include "mem/hierarchy.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "sim/sweep_spec.hh"
#include "util/json.hh"

using namespace smt;

namespace
{

constexpr const char *skipPrefix = "sim.cycleSkip.";

/**
 * Canonical stats dump with the cycle-skip bookkeeping removed: the
 * sim.cycleSkip.* counters are the only stats allowed to differ
 * between a skipping and a ticking run, so equivalence is asserted on
 * everything else. Verifies the input is an object so a parse drift
 * fails loudly instead of comparing empty strings.
 */
std::string
strippedStats(const std::string &stats_json)
{
    JsonValue doc = jsonParse(stats_json);
    EXPECT_TRUE(doc.isObject()) << stats_json;
    JsonValue::Object kept;
    for (const auto &[key, value] : doc.asObject())
        if (key.rfind(skipPrefix, 0) != 0)
            kept.emplace_back(key, value);
    return JsonValue(std::move(kept)).dump();
}

/** One sim.cycleSkip.* counter of a stats dump, e.g. "sleepEvents". */
std::uint64_t
skipCounter(const std::string &stats_json, const std::string &name)
{
    JsonValue doc = jsonParse(stats_json);
    const JsonValue *v = doc.find(skipPrefix + name);
    EXPECT_NE(v, nullptr) << skipPrefix << name << " missing";
    return v != nullptr ? v->asUInt64() : 0;
}

std::string
configPath(const std::string &name)
{
    return defaultConfigDir() + "/" + name + ".json";
}

/** Spec's grid points minus trace-replay ones (the .trc files the
 *  trace specs reference are produced by smtsim --record, not
 *  committed). */
std::vector<GridPoint>
replayablePoints(const SweepSpec &spec)
{
    std::vector<GridPoint> points;
    for (const auto &p : spec.expand())
        if (p.workload.rfind("trace:", 0) != 0)
            points.push_back(p);
    return points;
}

/**
 * A configuration with long quiescent spans: a memory-bound workload
 * whose long loads stall the thread until the miss returns, leaving
 * nothing for the core to do for tens of cycles at a time.
 */
SimConfig
stallHeavyConfig(Cycle warmup, Cycle measure)
{
    SimConfig cfg =
        table3Config("2_MEM", EngineKind::GshareBtb, 2, 8);
    cfg.core.longLoadPolicy = LongLoadPolicy::Stall;
    cfg.warmupCycles = warmup;
    cfg.measureCycles = measure;
    cfg.seed = 0;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Wheel scan
// ---------------------------------------------------------------------

TEST(CycleSkipWheel, NextEventCycleFindsScheduledCompletions)
{
    CoreParams params;
    params.fpLatency = 100;
    params.intMultLatency = 7;
    MemoryHierarchy memory(params.memory);
    ExecUnit exec(params, memory);

    const Cycle now = 5'000;
    const Cycle far = now + 10'000; // past one wheel revolution
    EXPECT_EQ(exec.nextEventCycle(now, far), far); // empty wheel
    EXPECT_FALSE(exec.pendingAt(now));

    DynInst fp;
    fp.tid = 0;
    fp.seq = 1;
    fp.op = OpClass::FpAlu;
    EXPECT_EQ(exec.issue(fp, now), 100u);

    DynInst mul;
    mul.tid = 1;
    mul.seq = 2;
    mul.op = OpClass::IntMult;
    EXPECT_EQ(exec.issue(mul, now), 7u);

    // Earliest event wins; the scan sees past slots as future ones
    // (modular wheel), so the answer is exact, not wrapped.
    EXPECT_EQ(exec.nextEventCycle(now, far), now + 7);
    EXPECT_FALSE(exec.pendingAt(now));
    EXPECT_TRUE(exec.pendingAt(now + 7));

    // The scan stops at its bound: an event at or past the limit is
    // not reported, and the limit comes back instead.
    EXPECT_EQ(exec.nextEventCycle(now, now + 7), now + 7);
    EXPECT_EQ(exec.nextEventCycle(now, now + 3), now + 3);
    EXPECT_EQ(exec.nextEventCycle(now, now + 8), now + 7);

    // Drain the multiply; the fp completion becomes the next event.
    std::vector<std::pair<ThreadID, InstSeqNum>> done;
    exec.completionsAt(now + 7, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(exec.nextEventCycle(now + 7, far), now + 100);
    EXPECT_EQ(exec.nextEventCycle(now + 7, now + 50), now + 50);

    exec.completionsAt(now + 100, done);
    EXPECT_EQ(exec.nextEventCycle(now + 100, far), far);
}

// ---------------------------------------------------------------------
// Equivalence across every committed spec
// ---------------------------------------------------------------------

TEST(CycleSkipEquivalence, SkipOnMatchesSkipOffAcrossAllConfigs)
{
    // Shortened windows keep the full cross product affordable; the
    // committed windows are covered by the golden-stats suite, which
    // runs with skipping on.
    const Cycle warmup = 2'000;
    const Cycle measure = 6'000;

    std::uint64_t total_skipped = 0;
    std::size_t specs_checked = 0;

    for (const std::string name :
         {"ablation_engines", "ablation_flush", "ablation_ftq",
          "ablation_policy", "ablation_predictor_size",
          "fig2_single_thread", "fig4_two_threads", "fig5_ilp",
          "fig6_ilp_wide", "fig7_mem", "fig8_mem_wide",
          "sec33_superscalar", "trace_mix"}) {
        SweepSpec spec = SweepSpec::fromFile(configPath(name));
        ASSERT_EQ(spec.type, SpecType::Grid) << name;

        auto points = replayablePoints(spec);
        ASSERT_FALSE(points.empty()) << name;

        SweepRequest request;
        request.points = points;
        request.warmupCycles = warmup;
        request.measureCycles = measure;
        request.seed = spec.seed;
        request.cycleSkip = true;
        auto on = ExperimentRunner().run(request).results;
        request.cycleSkip = false;
        auto off = ExperimentRunner().run(request).results;
        ASSERT_EQ(on.size(), off.size()) << name;

        for (std::size_t i = 0; i < on.size(); ++i) {
            SCOPED_TRACE(name + " point " + std::to_string(i) + " " +
                         on[i].workload);
            EXPECT_EQ(on[i].ipfc, off[i].ipfc);
            EXPECT_EQ(on[i].ipc, off[i].ipc);
            EXPECT_EQ(strippedStats(on[i].statsJson),
                      strippedStats(off[i].statsJson));
            // A ticking run must never report skip activity.
            EXPECT_EQ(skipCounter(off[i].statsJson, "cyclesSkipped"),
                      0u);
            EXPECT_EQ(skipCounter(off[i].statsJson, "sleepEvents"), 0u);
            total_skipped +=
                skipCounter(on[i].statsJson, "cyclesSkipped");
        }
        ++specs_checked;
    }

    EXPECT_EQ(specs_checked, 13u);
    // The optimization must actually fire somewhere in the corpus,
    // or this whole suite is vacuously comparing identical paths.
    EXPECT_GT(total_skipped, 0u);
}

// ---------------------------------------------------------------------
// Checkpoints taken inside a skipped span
// ---------------------------------------------------------------------

TEST(CycleSkipCheckpoint, RoundTripInsideSkippedSpan)
{
    // Find a warmup boundary that lands strictly inside a quiescent
    // span, so the checkpoint captures the core mid-skip. The scan
    // itself runs with skipping enabled; determinism makes the found
    // boundary reproducible for the fresh simulators below.
    const Cycle scan_base = 4'000;
    Cycle boundary = 0;
    {
        Simulator probe(stallHeavyConfig(scan_base, 8'000));
        probe.core().run(scan_base);
        for (Cycle at = scan_base; at < scan_base + 2'000; ++at) {
            if (probe.core().quiescent()) {
                boundary = at;
                break;
            }
            probe.core().run(1);
        }
    }
    ASSERT_GT(boundary, 0u)
        << "no quiescent cycle found; stall-heavy config no longer "
           "stalls?";

    SimConfig cfg = stallHeavyConfig(boundary, 8'000);

    Simulator uninterrupted(cfg);
    uninterrupted.runWarmup();
    EXPECT_TRUE(uninterrupted.core().quiescent());
    std::string snapshot = uninterrupted.saveCheckpointToString();
    uninterrupted.runMeasure();
    EXPECT_GT(uninterrupted.stats().sleepEvents, 0u);
    EXPECT_GT(uninterrupted.stats().cyclesSkipped, 0u);

    // Restore mid-span and measure: bit-identical to never pausing,
    // including the skip counters themselves.
    Simulator restored(cfg);
    restored.restoreCheckpointFromString(snapshot);
    EXPECT_TRUE(restored.core().quiescent());
    restored.runMeasure();
    EXPECT_EQ(restored.measuredStatsJson(),
              uninterrupted.measuredStatsJson());

    // And the whole exercise matches a run that ticks every cycle.
    SimConfig ticking_cfg = cfg;
    ticking_cfg.core.cycleSkip = false;
    Simulator ticking(ticking_cfg);
    ticking.run();
    EXPECT_EQ(ticking.stats().cyclesSkipped, 0u);
    EXPECT_EQ(strippedStats(uninterrupted.measuredStatsJson()),
              strippedStats(ticking.measuredStatsJson()));
}

// ---------------------------------------------------------------------
// Split runs
// ---------------------------------------------------------------------

TEST(CycleSkipSplitRun, SplitRunMatchesSingleRun)
{
    // run(a); run(b) must land on the same state as run(a + b): the
    // window boundary truncates any in-flight skip, so a span cut in
    // two may book extra sleepEvents, but everything architectural —
    // and the skipped-cycle total — is unchanged.
    const Cycle a = 4'321;
    const Cycle b = 8'024;

    SimConfig cfg = stallHeavyConfig(a, b);
    Simulator whole(cfg);
    Simulator split(cfg);

    whole.core().run(a + b);
    split.core().run(a);
    split.core().run(b);

    EXPECT_GT(whole.stats().sleepEvents, 0u);
    EXPECT_EQ(whole.stats().cyclesSkipped,
              split.stats().cyclesSkipped);
    EXPECT_EQ(strippedStats(whole.registry().jsonString()),
              strippedStats(split.registry().jsonString()));
}
