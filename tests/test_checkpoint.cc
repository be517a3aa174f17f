/**
 * @file
 * Checkpoint subsystem tests: full-state save→restore→run must be
 * bit-identical to an uninterrupted run (unit level, and through the
 * ExperimentRunner warmup-reuse fast path on the fig2 and fig4
 * specs); warmup runs exactly once per unique configuration group and
 * the checkpoint directory serves later sweeps without any warmup,
 * falling back to plain runs when its files are corrupt; every
 * malformed checkpoint input raises an actionable CheckpointError,
 * never UB; restored caches replay identical hit/miss sequences.
 */

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bpred/fetch_engine.hh"
#include "mem/cache.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"
#include "sim/sweep_spec.hh"
#include "util/random.hh"

using namespace smt;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** An empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    std::string dir = tempPath(name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

SimConfig
smallConfig(const std::string &wl, EngineKind e, unsigned n, unsigned x,
            std::uint64_t seed = 0, Cycle warmup = 3'000,
            Cycle measure = 8'000)
{
    SimConfig cfg = table3Config(wl, e, n, x);
    cfg.warmupCycles = warmup;
    cfg.measureCycles = measure;
    cfg.seed = seed;
    return cfg;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << path;
}

/** Restore `bytes` into a fresh simulator of `cfg`; must throw a
 *  CheckpointError whose message names the problem actionably. */
void
expectRestoreFails(const SimConfig &cfg, const std::string &bytes,
                   const std::string &expect_substring = "checkpoint")
{
    Simulator sim(cfg);
    try {
        sim.restoreCheckpointFromString(bytes, "forged.ckpt");
        FAIL() << "restore did not throw";
    } catch (const CheckpointError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(expect_substring), std::string::npos)
            << "message was: " << msg;
        EXPECT_NE(msg.find("forged.ckpt"), std::string::npos)
            << "message does not name its source: " << msg;
    }
}

/** Recompute the checksum of (possibly edited) checkpoint bytes, so
 *  a forged field reaches the parser behind the integrity check. */
std::string
resealed(std::string bytes)
{
    const std::size_t at = bytes.size() - 8 - sizeof(checkpointTrailer);
    std::uint64_t sum =
        checkpointChecksum(std::string_view(bytes).substr(0, at));
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>(sum >> (8 * i));
    return bytes;
}

/** A valid checkpoint with one byte replaced and the checksum
 *  re-stamped: a well-sealed file whose field is wrong. */
std::string
forged(const std::string &valid, std::size_t offset, char value)
{
    std::string bytes = valid;
    EXPECT_LT(offset, bytes.size());
    bytes[offset] = value;
    return resealed(std::move(bytes));
}

} // namespace

// ---------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------

TEST(CheckpointRoundTrip, SaveRestoreBitIdenticalAllEngines)
{
    // Every registered engine, zoo included: each engine's checkpoint
    // section (tag + payload) must round-trip bit-identically.
    for (EngineKind e : allEngines()) {
        SimConfig cfg = smallConfig("2_MIX", e, 2, 8, 42);

        Simulator uninterrupted(cfg);
        uninterrupted.runWarmup();
        std::string snapshot = uninterrupted.saveCheckpointToString();
        uninterrupted.runMeasure();

        Simulator restored(cfg);
        restored.restoreCheckpointFromString(snapshot);
        restored.runMeasure();

        EXPECT_EQ(uninterrupted.registry().jsonString(),
                  restored.registry().jsonString())
            << "engine " << engineName(e);
        EXPECT_EQ(uninterrupted.registry().textString(),
                  restored.registry().textString())
            << "engine " << engineName(e);
        // The run did real work on both sides.
        EXPECT_GT(restored.registry().value("commit.insts"), 500.0);
    }
}

TEST(CheckpointRoundTrip, FlushPolicySmallRobRoundTripIsBitIdentical)
{
    // FLUSH squashes from long loads inside the window, and a small
    // ROB makes the per-thread checkpoint rings small (64 slots): the
    // restored run (one ring slot per restored instruction) must still
    // match the uninterrupted one (one slot per fetch chunk).
    SimConfig cfg = smallConfig("4_MEM", EngineKind::GshareBtb, 2, 8, 5,
                                4'000, 12'000);
    cfg.core.longLoadPolicy = LongLoadPolicy::Flush;
    cfg.core.robEntries = 16;

    Simulator uninterrupted(cfg);
    uninterrupted.runWarmup();
    std::string snapshot = uninterrupted.saveCheckpointToString();
    uninterrupted.runMeasure();

    Simulator restored(cfg);
    restored.restoreCheckpointFromString(snapshot);
    restored.runMeasure();

    EXPECT_EQ(uninterrupted.registry().jsonString(),
              restored.registry().jsonString());
    EXPECT_GT(restored.registry().value("issue.longLoadEvents"), 50.0);
    EXPECT_GT(restored.registry().value("sim.instsSquashed"), 500.0);
}

TEST(CheckpointRoundTrip, InMemoryStringRoundTrip)
{
    SimConfig cfg = smallConfig("2_ILP", EngineKind::Stream, 1, 16, 7);

    Simulator a(cfg);
    a.runWarmup();
    std::string snapshot = a.saveCheckpointToString();
    a.runMeasure();

    Simulator b(cfg);
    b.restoreCheckpointFromString(snapshot);
    b.runMeasure();

    EXPECT_EQ(a.registry().jsonString(), b.registry().jsonString());
}

TEST(CheckpointRoundTrip, TraceReplayWorkloadRoundTrip)
{
    // Record a replayable trace, then checkpoint a replaying run:
    // the file position must be part of the restored state.
    std::string trace_path = tempPath("ckpt_replay.trc");
    SimConfig rec = smallConfig("gzip", EngineKind::GshareBtb, 1, 8);
    rec.recordPath = trace_path;
    rec.recordPadCycles = 2'000;
    {
        // Scoped: destruction closes the trace file for replay.
        Simulator recorder(rec);
        recorder.run();
    }

    SimConfig replay = rec;
    replay.recordPath.clear();
    replay.recordPadCycles = 0;
    replay.workload.traces = {trace_path};

    Simulator uninterrupted(replay);
    uninterrupted.runWarmup();
    std::string snapshot = uninterrupted.saveCheckpointToString();
    uninterrupted.runMeasure();

    Simulator restored(replay);
    restored.restoreCheckpointFromString(snapshot);
    restored.runMeasure();

    EXPECT_EQ(uninterrupted.registry().jsonString(),
              restored.registry().jsonString());
    std::remove(trace_path.c_str());
}

TEST(CheckpointRoundTrip, RestoreRefusesRecordingRuns)
{
    SimConfig cfg = smallConfig("gzip", EngineKind::GshareBtb, 1, 8);
    std::string snapshot;
    {
        Simulator sim(cfg);
        sim.runWarmup();
        snapshot = sim.saveCheckpointToString();
    }
    SimConfig recording = cfg;
    recording.recordPath = tempPath("refuse_record.trc");
    Simulator sim(recording);
    EXPECT_THROW(sim.restoreCheckpointFromString(snapshot),
                 CheckpointError);
    std::remove(recording.recordPath.c_str());
}

// ---------------------------------------------------------------------
// Warmup-reuse fast path (the fig2/fig4 acceptance properties)
// ---------------------------------------------------------------------

namespace
{

/** Run a spec plain and with warmup reuse; both must match exactly. */
void
expectReuseBitIdentical(SweepSpec spec,
                        const std::string &checkpoint_dir,
                        SweepTiming &timing)
{
    SweepRequest plain_request = spec.makeRequest();
    plain_request.checkpointDir.clear();
    auto plain = ExperimentRunner().run(plain_request).results;

    SweepRequest reuse_request = spec.makeRequest();
    reuse_request.checkpointDir = checkpoint_dir;
    SweepReport report = ExperimentRunner().run(reuse_request);
    const auto &reused = report.results;
    timing = report.timing;

    ASSERT_EQ(plain.size(), reused.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].ipfc, reused[i].ipfc) << "point " << i;
        EXPECT_EQ(plain[i].ipc, reused[i].ipc) << "point " << i;
        EXPECT_EQ(plain[i].statsJson, reused[i].statsJson)
            << "point " << i;
    }
    EXPECT_EQ(timing.gridPoints, reuse_request.points.size());
}

} // namespace

TEST(WarmupReuse, Fig2SpecBitIdenticalAndOneWarmupPerGroup)
{
    SweepSpec spec = SweepSpec::fromFile(defaultConfigDir() +
                                         "/fig2_single_thread.json");
    SweepTiming timing;
    expectReuseBitIdentical(spec, freshDir("reuse_fig2"), timing);
    // fig2's grid points all differ in core configuration, so every
    // group is its own warmup — exactly one warmup per unique
    // (workload, core-config) group, none reused, none direct.
    EXPECT_EQ(timing.warmupGroups, timing.gridPoints);
    EXPECT_EQ(timing.warmupRuns, timing.warmupGroups);
    EXPECT_EQ(timing.restoredRuns, 0u);
    EXPECT_EQ(timing.directRuns, 0u);
}

TEST(WarmupReuse, Fig4SpecBitIdenticalAndOneWarmupPerGroup)
{
    SweepSpec spec = SweepSpec::fromFile(defaultConfigDir() +
                                         "/fig4_two_threads.json");
    SweepTiming timing;
    expectReuseBitIdentical(spec, freshDir("reuse_fig4"), timing);
    EXPECT_EQ(timing.warmupGroups, timing.gridPoints);
    EXPECT_EQ(timing.warmupRuns, timing.warmupGroups);
    EXPECT_EQ(timing.restoredRuns, 0u);
}

TEST(WarmupReuse, DuplicateConfigPointsShareOneWarmup)
{
    // Two sweep blocks expanding to the identical configuration: the
    // group machinery must run the warmup once and restore it for
    // the duplicate, with bit-identical results.
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "dup",
        "warmupCycles": 3000,
        "measureCycles": 8000,
        "sweeps": [
            {"workloads": ["2_MIX"], "engines": ["stream"],
             "policies": ["1.8"]},
            {"workloads": ["2_MIX"], "engines": ["stream"],
             "policies": ["1.8"]}
        ]
    })");
    SweepTiming timing;
    expectReuseBitIdentical(spec, freshDir("reuse_dup"), timing);
    EXPECT_EQ(timing.gridPoints, 2u);
    EXPECT_EQ(timing.warmupGroups, 1u);
    EXPECT_EQ(timing.warmupRuns, 1u);
    EXPECT_EQ(timing.restoredRuns, 1u);
}

TEST(WarmupReuse, DiskCacheServesLaterSweepsWithoutWarmup)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "cache",
        "warmupCycles": 3000,
        "measureCycles": 8000,
        "workloads": ["2_MIX"],
        "engines": ["gshare+BTB", "stream"],
        "policies": ["1.8"]
    })");
    SweepRequest request = spec.makeRequest();
    request.checkpointDir = freshDir("ckpt_cache");

    // Each run() call gets a fresh cache, so the second sweep can
    // only be served by the checkpoint directory.
    SweepReport first = ExperimentRunner().run(request);
    const auto &cold = first.results;
    EXPECT_EQ(first.timing.warmupRuns, 2u);
    EXPECT_EQ(first.timing.restoredRuns, 0u);

    // A second sweep over the same configurations restores every
    // point from the persisted snapshots: zero warmups, identical
    // results.
    SweepReport second = ExperimentRunner().run(request);
    const auto &warm = second.results;
    EXPECT_EQ(second.timing.warmupRuns, 0u);
    EXPECT_EQ(second.timing.restoredRuns, request.points.size());
    EXPECT_EQ(second.timing.cacheDiskHits, second.timing.restoredRuns);
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].ipfc, warm[i].ipfc);
        EXPECT_EQ(cold[i].ipc, warm[i].ipc);
        EXPECT_EQ(cold[i].statsJson, warm[i].statsJson);
    }
}

TEST(WarmupReuse, CorruptDirectoryFallsBackToThePlainResults)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "corrupt",
        "warmupCycles": 3000,
        "measureCycles": 8000,
        "workloads": ["2_MIX"],
        "engines": ["gshare+BTB", "stream"],
        "policies": ["1.8"]
    })");
    SweepRequest request = spec.makeRequest();
    auto plain = ExperimentRunner().run(request).results;
    request.checkpointDir = freshDir("ckpt_corrupt");
    ASSERT_EQ(ExperimentRunner().run(request).timing.warmupRuns, 2u);

    // Flip one byte in the middle of every snapshot's payload.
    std::string victim;
    for (const auto &e : std::filesystem::directory_iterator(
             request.checkpointDir)) {
        std::string bytes = readFileBytes(e.path().string());
        bytes[bytes.size() / 2] ^= 0x01;
        writeFileBytes(e.path().string(), bytes);
        victim = e.path().filename().string();
    }
    ASSERT_EQ(victim.rfind("smtckpt_", 0), 0u) << victim;

    // Every restore fails its checksum, warns naming the file, and
    // the point runs the plain way to the plain results.
    ::testing::internal::CaptureStderr();
    SweepReport report = ExperimentRunner().run(request);
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warnings.find("checksum"), std::string::npos) << warnings;
    EXPECT_NE(warnings.find(victim), std::string::npos) << warnings;
    EXPECT_EQ(report.timing.restoredRuns, 0u);
    EXPECT_EQ(report.timing.directRuns, request.points.size());
    ASSERT_EQ(plain.size(), report.results.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].ipc, report.results[i].ipc) << "point " << i;
        EXPECT_EQ(plain[i].statsJson, report.results[i].statsJson)
            << "point " << i;
    }
}

TEST(WarmupReuse, RecordingPointsBypassTheReusePath)
{
    SweepSpec spec = SweepSpec::fromString(R"({
        "name": "rec",
        "warmupCycles": 2000,
        "measureCycles": 5000,
        "workloads": ["gzip"],
        "engines": ["gshare+BTB"],
        "policies": ["1.8"]
    })");
    SweepRequest request = spec.makeRequest();
    ASSERT_EQ(request.points.size(), 1u);
    request.points[0].recordPath = tempPath("reuse_bypass.trc");
    request.checkpointDir = freshDir("reuse_bypass");

    SweepReport report = ExperimentRunner().run(request);
    EXPECT_EQ(report.timing.directRuns, 1u);
    EXPECT_EQ(report.timing.warmupRuns, 0u);
    EXPECT_GT(report.results[0].ipc, 0.0);
    std::remove(request.points[0].recordPath.c_str());
}

TEST(RunnerGuards, DuplicateRecordPathsFailFast)
{
    SweepRequest request;
    request.warmupCycles = 1'000;
    request.measureCycles = 2'000;
    request.points = {
        {"gzip", EngineKind::GshareBtb, 1, 8},
        {"gzip", EngineKind::GskewFtb, 1, 8},
    };
    request.points[0].recordPath = tempPath("dup.trc");
    request.points[1].recordPath = request.points[0].recordPath;
    try {
        ExperimentRunner().run(request);
        FAIL() << "duplicate record paths did not throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("overwrite"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Malformed checkpoint inputs: actionable CheckpointErrors, never UB
// ---------------------------------------------------------------------

namespace
{

/** Shared valid checkpoint + config for the corruption tests. */
class MalformedCheckpoint : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cfg = new SimConfig(smallConfig("gzip", EngineKind::Stream, 1,
                                        8, 0, 500, 1'000));
        Simulator sim(*cfg);
        sim.runWarmup();
        valid = new std::string(sim.saveCheckpointToString());
    }

    static void
    TearDownTestSuite()
    {
        delete valid;
        delete cfg;
    }

    static SimConfig *cfg;
    static std::string *valid;
};

SimConfig *MalformedCheckpoint::cfg = nullptr;
std::string *MalformedCheckpoint::valid = nullptr;

/** Offset of the component-count field in the header. */
constexpr std::size_t countOffset = 8 + 2 + 2;

/** Offset of the config-key length field. */
constexpr std::size_t keyLenOffset = countOffset + 4;

} // namespace

TEST_F(MalformedCheckpoint, ValidCheckpointRestores)
{
    Simulator sim(*cfg);
    sim.restoreCheckpointFromString(*valid); // must not throw
    sim.runMeasure();
    EXPECT_GT(sim.registry().value("commit.insts"), 0.0);
}

TEST_F(MalformedCheckpoint, Empty)
{
    expectRestoreFails(*cfg, "", "too short");
}

TEST_F(MalformedCheckpoint, BadMagic)
{
    expectRestoreFails(*cfg, forged(*valid, 0, 'X'),
                       "not a checkpoint file");
}

TEST_F(MalformedCheckpoint, VersionSkew)
{
    expectRestoreFails(*cfg, forged(*valid, 8, 99), "version");
}

TEST_F(MalformedCheckpoint, PayloadByteFlipFailsTheChecksum)
{
    // A flipped bit deep in a payload would otherwise restore as a
    // plausible but wrong state.
    std::string bytes = *valid;
    bytes[bytes.size() / 2] ^= 0x01;
    expectRestoreFails(*cfg, bytes, "checksum");
}

TEST_F(MalformedCheckpoint, ReservedFieldNonzero)
{
    expectRestoreFails(*cfg, forged(*valid, 10, 1), "reserved");
}

TEST_F(MalformedCheckpoint, ZeroComponentCount)
{
    std::string bytes = *valid;
    for (int i = 0; i < 4; ++i)
        bytes[countOffset + i] = 0;
    expectRestoreFails(*cfg, resealed(bytes), "zero components");
}

TEST_F(MalformedCheckpoint, ComponentCountTooLow)
{
    std::string bytes = *valid;
    bytes[countOffset] = 1;
    for (int i = 1; i < 4; ++i)
        bytes[countOffset + i] = 0;
    expectRestoreFails(*cfg, resealed(bytes), "component-count mismatch");
}

TEST_F(MalformedCheckpoint, ComponentCountTooHigh)
{
    std::string bytes = *valid;
    bytes[countOffset] = static_cast<char>(
        static_cast<unsigned char>(bytes[countOffset]) + 5);
    expectRestoreFails(*cfg, resealed(bytes), "component-count mismatch");
}

TEST_F(MalformedCheckpoint, HugeStringLength)
{
    std::string bytes = *valid;
    for (int i = 0; i < 4; ++i)
        bytes[keyLenOffset + i] = static_cast<char>(0xff);
    expectRestoreFails(*cfg, resealed(bytes), "format limit");
}

TEST_F(MalformedCheckpoint, TruncatedHeader)
{
    expectRestoreFails(*cfg, valid->substr(0, 10));
}

TEST_F(MalformedCheckpoint, TruncatedMidPayload)
{
    expectRestoreFails(*cfg, valid->substr(0, valid->size() / 2));
}

TEST_F(MalformedCheckpoint, MissingTrailer)
{
    expectRestoreFails(*cfg, valid->substr(0, valid->size() - 8),
                       "trailer");
}

TEST_F(MalformedCheckpoint, CorruptTrailer)
{
    std::string bytes = *valid;
    bytes[bytes.size() - 4] = '?';
    expectRestoreFails(*cfg, bytes, "trailer");
}

TEST_F(MalformedCheckpoint, TrailingGarbage)
{
    expectRestoreFails(*cfg, *valid + "!", "trailing bytes");
}

TEST_F(MalformedCheckpoint, WrongComponentName)
{
    // The first section name ("core.rob") sits right after the
    // config key; corrupt its first character.
    std::uint32_t key_len =
        static_cast<unsigned char>((*valid)[keyLenOffset]) |
              (static_cast<unsigned char>((*valid)[keyLenOffset + 1])
               << 8) |
              (static_cast<unsigned char>((*valid)[keyLenOffset + 2])
               << 16) |
              (static_cast<unsigned char>((*valid)[keyLenOffset + 3])
               << 24);
    std::size_t name_offset = keyLenOffset + 4 + key_len + 4;
    expectRestoreFails(*cfg, forged(*valid, name_offset, 'X'),
                       "order mismatch");
}

TEST_F(MalformedCheckpoint, ConfigKeyMismatchDifferentSeed)
{
    SimConfig other = *cfg;
    other.seed = 12345;
    expectRestoreFails(other, *valid, "different configuration");
}

TEST_F(MalformedCheckpoint, ConfigKeyMismatchDifferentEngine)
{
    SimConfig other =
        smallConfig("gzip", EngineKind::GshareBtb, 1, 8, 0, 500,
                    1'000);
    expectRestoreFails(other, *valid, "different configuration");
}

TEST_F(MalformedCheckpoint, ConfigKeyMismatchDifferentWarmup)
{
    SimConfig other = *cfg;
    other.warmupCycles += 1;
    expectRestoreFails(other, *valid, "different configuration");
}

TEST_F(MalformedCheckpoint, RestoreIntoUsedSimulatorRefused)
{
    Simulator sim(*cfg);
    sim.run();
    EXPECT_THROW(sim.restoreCheckpointFromString(*valid),
                 CheckpointError);
}

namespace
{

std::uint64_t
readLe(const std::string &bytes, std::size_t at, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
        auto byte = static_cast<unsigned char>(bytes[at + i]);
        v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return v;
}

void
writeLe64(std::string &bytes, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/** A memory-bound thread whose fetch buffer, decode and rename
 *  latches are all occupied when the warmup ends. */
SimConfig
cloggedLatchConfig()
{
    return smallConfig("mcf", EngineKind::Stream, 1, 8, 0, 2'000, 1'000);
}

/** Offset of thread 0's u32 dispatched count (robCount) in the
 *  core.state section. */
std::size_t
thread0RobCount(const std::string &bytes)
{
    const std::string name = "core.state";
    std::size_t at = bytes.find(name);
    EXPECT_NE(at, std::string::npos);
    // Name and payload size; then cycle, stamp, the two rotation
    // pointers and the icounts.
    return at + name.size() + 8 + 8 + 8 + 4 + 4 + 4 * maxThreads;
}

/** Offsets of thread 0's latch lists (each at its u32 count) in the
 *  core.state section: the fetch buffer, decode and rename lists. */
std::array<std::size_t, 3>
thread0LatchLists(const std::string &bytes)
{
    // Past the robCounts and the buffer capacity.
    std::size_t at = thread0RobCount(bytes) + 4 * maxThreads + 4;
    std::array<std::size_t, 3> lists{};
    for (std::size_t &list : lists) {
        list = at;
        at += 4 + 8 * readLe(bytes, at, 4);
    }
    return lists;
}

} // namespace

TEST(MalformedLatches, ValidLatchesRestore)
{
    const SimConfig cfg = cloggedLatchConfig();
    Simulator sim(cfg);
    sim.runWarmup();
    const std::string bytes = sim.saveCheckpointToString();
    const auto lists = thread0LatchLists(bytes);
    for (std::size_t list : lists)
        EXPECT_GE(readLe(bytes, list, 4), 2u);
    Simulator restored(cfg);
    restored.restoreCheckpointFromString(bytes); // must not throw
}

TEST(MalformedLatches, LatchesThatDoNotTileTheRobRejected)
{
    // One more dispatched instruction than the ROB holds below the
    // latches: the lists are right, but they no longer meet the
    // dispatched entries.
    const SimConfig cfg = cloggedLatchConfig();
    Simulator sim(cfg);
    sim.runWarmup();
    std::string bytes = sim.saveCheckpointToString();
    const std::size_t at = thread0RobCount(bytes);
    bytes[at] = static_cast<char>(bytes[at] + 1);
    expectRestoreFails(cfg, resealed(bytes), "corrupt payload");
}

TEST(MalformedLatches, LatchListOutOfOrderRejected)
{
    // Each latch must list its ROB range in order; two swapped
    // entries name instructions at each other's ROB positions.
    const SimConfig cfg = cloggedLatchConfig();
    Simulator sim(cfg);
    sim.runWarmup();
    const std::string valid = sim.saveCheckpointToString();
    for (std::size_t list : thread0LatchLists(valid)) {
        std::string bytes = valid;
        ASSERT_GE(readLe(bytes, list, 4), 2u);
        std::uint64_t first = readLe(bytes, list + 4, 8);
        std::uint64_t second = readLe(bytes, list + 12, 8);
        writeLe64(bytes, list + 4, second);
        writeLe64(bytes, list + 12, first);
        expectRestoreFails(cfg, resealed(bytes), "corrupt reference");
    }
}

TEST(MalformedLatches, LatchListOutsideItsRangeRejected)
{
    // An instruction that is in the ROB, but in another latch's
    // range: each list's oldest entry replaced by the next list's.
    const SimConfig cfg = cloggedLatchConfig();
    Simulator sim(cfg);
    sim.runWarmup();
    const std::string valid = sim.saveCheckpointToString();
    const auto lists = thread0LatchLists(valid);
    for (int k = 0; k < 3; ++k) {
        std::string bytes = valid;
        const std::size_t list = lists[k];
        const std::size_t other = lists[(k + 1) % 3];
        writeLe64(bytes, list + 4, readLe(bytes, other + 4, 8));
        expectRestoreFails(cfg, resealed(bytes), "corrupt reference");
    }
}

// ---------------------------------------------------------------------
// Codec-level range checks: corrupt index fields must error, not UB
// ---------------------------------------------------------------------

namespace
{

/** Round-trip one EngineCheckpoint through the codec; the restore of
 *  a tampered snapshot must throw, never index out of bounds. */
void
expectEngineCheckpointRejected(const EngineCheckpoint &c,
                               const std::string &expect_substring)
{
    CheckpointWriter w("<codec-test>", "k");
    w.begin("x");
    c.save(w);
    w.end();
    const std::string bytes = w.finish();
    CheckpointReader r(bytes, "<codec-test>");
    r.begin("x");
    EngineCheckpoint d;
    try {
        d.restore(r);
        FAIL() << "tampered EngineCheckpoint restored";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(expect_substring),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(MalformedCodec, RasTosBeyondSnapshotEntriesRejected)
{
    ReturnAddressStack ras(16);
    ras.push(0x100);
    EngineCheckpoint c;
    c.ras = ras.snapshot();
    c.ras.tos = 99; // beyond the 16 serialized entries
    expectEngineCheckpointRejected(c, "top-of-stack");
}

TEST(MalformedCodec, RasTosWithoutEntriesRejected)
{
    EngineCheckpoint c;
    c.ras.tos = 7; // no stack copy at all
    expectEngineCheckpointRejected(c, "top-of-stack");
}

TEST(MalformedCodec, PathHistoryPositionOutOfRangeRejected)
{
    EngineCheckpoint c;
    c.path.pos = 200; // ring has PathHistory::maxDepth slots
    expectEngineCheckpointRejected(c, "out of range");
}

// ---------------------------------------------------------------------
// Cache restore regression: identical hit/miss sequences
// ---------------------------------------------------------------------

TEST(CacheRestore, RestoredCacheReplaysIdenticalHitMissSequence)
{
    CacheParams params{"L1T", 8 * 1024, 2, 64, 4, 1, 4};
    Cache warm(params, nullptr, 50);
    Cache restored(params, nullptr, 50);

    // Warm with a deterministic pseudo-random access pattern that
    // exercises fills, evictions and LRU reordering.
    Rng rng(0xc0ffee);
    Cycle now = 0;
    for (int i = 0; i < 4'000; ++i) {
        Addr addr = rng.below(64 * 1024) & ~Addr(7);
        warm.access(addr, (i % 7) == 0, now);
        now += 1 + (i % 3);
    }

    // Round-trip the warm cache state through the checkpoint codec.
    CheckpointWriter w("<cache-test>", "cache-key");
    w.begin("cache");
    warm.save(w);
    w.end();
    const std::string bytes = w.finish();
    CheckpointReader r(bytes, "<cache-test>");
    EXPECT_EQ(r.configKey(), "cache-key");
    r.begin("cache");
    restored.restore(r);
    r.end();
    r.finish();

    EXPECT_EQ(warm.stats().accesses, restored.stats().accesses);
    EXPECT_EQ(warm.stats().misses, restored.stats().misses);
    EXPECT_EQ(warm.stats().evictions, restored.stats().evictions);

    // Both caches must now agree access-for-access: same latencies
    // (hits and misses in the same places) and the same LRU
    // victimization decisions throughout.
    Rng probe(0xfeedface);
    for (int i = 0; i < 4'000; ++i) {
        Addr addr = probe.below(64 * 1024) & ~Addr(7);
        bool write = (i % 5) == 0;
        Cycle lat_warm = warm.access(addr, write, now);
        Cycle lat_restored = restored.access(addr, write, now);
        ASSERT_EQ(lat_warm, lat_restored) << "access " << i;
        now += 1 + (i % 4);
    }
    EXPECT_EQ(warm.stats().misses, restored.stats().misses);
    EXPECT_EQ(warm.stats().evictions, restored.stats().evictions);
    EXPECT_EQ(warm.stats().mshrMerges, restored.stats().mshrMerges);
}

// ---------------------------------------------------------------------
// Spec-level wiring
// ---------------------------------------------------------------------

TEST(CheckpointSpec, RemovedCheckpointAfterWarmupKeyPointsAtCheckpointDir)
{
    // The in-memory-only sharing switch is gone: a spec still naming
    // it must say what replaces it.
    try {
        SweepSpec::fromString(R"({
            "name": "speckey", "measureCycles": 1000,
            "checkpointAfterWarmup": true,
            "workloads": ["2_MIX"], "policies": ["1.8"]
        })");
        FAIL() << "checkpointAfterWarmup was accepted";
    } catch (const SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("\"checkpointAfterWarmup\" was removed"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("--checkpoint-dir"), std::string::npos) << msg;
    }
}

TEST(CheckpointSpec, BadCheckpointKeysRejected)
{
    EXPECT_THROW(SweepSpec::fromString(R"({
        "name": "bad", "measureCycles": 1000,
        "checkpointDir": "",
        "workloads": ["gzip"], "policies": ["1.8"]
    })"),
                 SpecError);
}
