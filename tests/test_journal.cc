/**
 * @file
 * Resumable-sweep tests: the journal's entry codec round trips
 * losslessly and decodes overrides through the spec parser, and a
 * sweep run through ExperimentRunner with a
 * checkpointDir journal (the `smtsim --checkpoint-dir` path) resumes
 * by skipping every journaled point with zero re-simulated warmups —
 * missing points restore their warmups from the disk snapshot tier.
 * A torn final line is tolerated, and a journal written by a
 * different request or an older journal schema fails fast, naming the
 * file to delete.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/executor.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/scheduler.hh"
#include "sim/sweep_spec.hh"
#include "util/json.hh"

using namespace smt;

namespace
{

/** A fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

GridPoint
point(const std::string &workload, unsigned width = 8)
{
    GridPoint p;
    p.workload = workload;
    p.engine = EngineKind::GshareBtb;
    p.fetchThreads = 1;
    p.fetchWidth = width;
    p.policy = PolicyKind::ICount;
    return p;
}

ExecutorParams
smallParams()
{
    return {/*warmupCycles=*/1500, /*measureCycles=*/4000,
            /*seed=*/0, /*cycleSkip=*/true};
}

/** A 4-point request; every point is its own warmup group. */
SweepRequest
smallRequest(const std::string &checkpoint_dir)
{
    SweepRequest req;
    req.warmupCycles = 1500;
    req.measureCycles = 4000;
    req.checkpointDir = checkpoint_dir;
    for (const char *wl : {"gzip", "mcf"}) {
        req.points.push_back(point(wl, 8));
        req.points.push_back(point(wl, 16));
    }
    return req;
}

/** Run `req` resumably, exactly as `smtsim --checkpoint-dir` does. */
SweepReport
runJournaled(const SweepRequest &req, const std::string &bench)
{
    SweepSubmitOptions opts;
    opts.journal =
        std::make_shared<SweepJournal>(req.checkpointDir, bench, req);
    opts.precompleted = opts.journal->completed();
    return ExperimentRunner().run(req, std::move(opts));
}

/** The BENCH-record results array, rendered (the bit-identity lens:
 *  the warmupReuse counts legitimately differ across resumes). */
std::string
resultsArray(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    ExperimentRunner::writeJson(os, "t", results);
    return jsonParse(os.str()).find("results")->dump();
}

} // namespace

// ---------------------------------------------------------------------
// Entry codec round trips
// ---------------------------------------------------------------------

TEST(ResultCodec, ExecutedResultRoundTripsLosslessly)
{
    ExperimentResult r =
        PointExecutor(smallParams()).execute(point("gzip")).result;
    ASSERT_FALSE(r.statsJson.empty());

    std::string line = encodeResult(r);
    ExperimentResult back = decodeResult(jsonParse(line));
    EXPECT_EQ(encodeResult(back), line);

    // The BENCH-record rendering must survive the codec byte for
    // byte — this is what keeps resumed records diffable against
    // uninterrupted ones.
    std::ostringstream a, b;
    ExperimentRunner::writeJson(a, "t", {r});
    ExperimentRunner::writeJson(b, "t", {back});
    EXPECT_EQ(a.str(), b.str());
}

TEST(ResultCodec, OverridesDecodeThroughTheSpecParser)
{
    ExperimentResult r;
    r.workload = "gzip";
    r.overrides.ftqEntries = 4;
    r.overrides.longLoadPolicy = LongLoadPolicy::Stall;
    r.overrides.predictorShift = 2;
    r.overrides.engineParams = {{"gshareEntries", 1024}};
    r.statsJson = "{}";
    std::string line = encodeResult(r);
    EXPECT_EQ(decodeResult(jsonParse(line)).overrides, r.overrides);

    // The spec parser's range and engine-scope checks apply.
    r.overrides = RunOverrides{};
    const std::string plain = encodeResult(r);
    auto decodeWith = [&](const std::string &overrides) {
        std::string bad = plain;
        std::size_t at = bad.find("\"warmupCycles\"");
        bad.insert(at, "\"overrides\": " + overrides + ", ");
        return decodeResult(jsonParse(bad));
    };
    EXPECT_THROW(decodeWith(R"({"predictorShift": 9})"), SpecError);
    EXPECT_THROW(decodeWith(R"({"ftqEntries": 0})"), SpecError);
    EXPECT_THROW(decodeWith(R"({"tageTables": 4})"), SpecError);
    EXPECT_THROW(decodeWith(R"({"ftqEntries": [2, 4]})"),
                 std::runtime_error);
}

TEST(ResultCodec, SweepRequestKeyTracksRequestIdentity)
{
    SweepRequest req = smallRequest("");
    std::string key = sweepRequestKey(req);
    EXPECT_EQ(key.size(), 16u); // %016llx
    EXPECT_EQ(sweepRequestKey(req), key);

    SweepRequest other = req;
    other.seed = 7;
    EXPECT_NE(sweepRequestKey(other), key);

    other = req;
    other.points[2].fetchWidth = 4;
    EXPECT_NE(sweepRequestKey(other), key);
}

// ---------------------------------------------------------------------
// Resume through the in-process runner
// ---------------------------------------------------------------------

TEST(Journal, JournalResumeSkipsEveryCompletedPoint)
{
    SweepRequest req = smallRequest(freshDir("journal_resume"));

    SweepReport first = runJournaled(req, "resume");
    EXPECT_EQ(first.timing.journaledPoints, 0u);
    EXPECT_EQ(first.timing.warmupRuns, req.points.size());
    EXPECT_EQ(first.timing.restoredRuns, 0u);

    // The journal header describes this sweep.
    std::ifstream in(SweepJournal::pathFor(req.checkpointDir, "resume"));
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    JsonValue doc = jsonParse(header);
    EXPECT_EQ(doc.find("schema")->asString(), "smtfetch-journal-v2");
    EXPECT_EQ(doc.find("bench")->asString(), "resume");
    EXPECT_EQ(doc.find("requestKey")->asString(),
              sweepRequestKey(req));
    EXPECT_EQ(doc.find("points")->asUInt64(), req.points.size());
    in.close();

    // A full re-run simulates nothing at all: every point is served
    // from the journal.
    SweepReport rerun = runJournaled(req, "resume");
    EXPECT_EQ(rerun.timing.journaledPoints, req.points.size());
    EXPECT_EQ(rerun.timing.warmupRuns, 0u);
    EXPECT_EQ(rerun.timing.restoredRuns, 0u);
    EXPECT_EQ(resultsArray(rerun.results), resultsArray(first.results));
}

TEST(Journal, TruncatedJournalRerunsOnlyTheMissingPoint)
{
    SweepRequest req = smallRequest(freshDir("journal_truncate"));
    std::string firstResults =
        resultsArray(runJournaled(req, "truncate").results);

    // Drop the last completed entry — the sweep was killed after 3
    // of 4 points.
    std::string path = SweepJournal::pathFor(req.checkpointDir,
                                             "truncate");
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 1 + req.points.size());
    lines.pop_back();
    {
        std::ofstream out(path, std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }

    // A new run has an empty in-memory cache: the one missing point
    // must restore its warmup from the disk snapshot tier, so the
    // resumed run re-simulates zero warmups.
    SweepReport rerun = runJournaled(req, "truncate");
    EXPECT_EQ(rerun.timing.journaledPoints, req.points.size() - 1);
    EXPECT_EQ(rerun.timing.warmupRuns, 0u);
    EXPECT_EQ(rerun.timing.restoredRuns, 1u);
    EXPECT_EQ(rerun.timing.cacheDiskHits, 1u);
    EXPECT_EQ(resultsArray(rerun.results), firstResults);
}

TEST(Journal, TornFinalJournalLineIsTolerated)
{
    SweepRequest req = smallRequest(freshDir("journal_torn"));
    runJournaled(req, "torn");

    // SIGKILL mid-append: the final line stops mid-document.
    {
        std::ofstream out(
            SweepJournal::pathFor(req.checkpointDir, "torn"),
            std::ios::app);
        out << "{\"point\": 1, \"resu";
    }

    SweepReport rerun = runJournaled(req, "torn");
    EXPECT_EQ(rerun.timing.journaledPoints, req.points.size());
    EXPECT_EQ(rerun.timing.warmupRuns, 0u);
}

TEST(Journal, RequestKeyMismatchNamesTheJournalToDelete)
{
    SweepRequest req = smallRequest(freshDir("journal_mismatch"));
    runJournaled(req, "mismatch");

    // Same bench + checkpoint dir, different sweep identity.
    SweepRequest other = req;
    other.seed = 99;
    std::string path = SweepJournal::pathFor(req.checkpointDir,
                                             "mismatch");
    try {
        runJournaled(other, "mismatch");
        FAIL() << "expected JournalError";
    } catch (const JournalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("delete " + path), std::string::npos)
            << what;
    }

    // Deleting the named journal lets the new sweep run.
    std::filesystem::remove(path);
    SweepReport run = runJournaled(other, "mismatch");
    EXPECT_EQ(run.timing.journaledPoints, 0u);
    EXPECT_EQ(run.results.size(), other.points.size());
}

TEST(Journal, BadJournaledOverridesNameTheJournal)
{
    SweepRequest req = smallRequest(freshDir("journal_overrides"));
    runJournaled(req, "overrides");

    // An out-of-range override on an entry that is not the torn tail.
    std::string path = SweepJournal::pathFor(req.checkpointDir,
                                             "overrides");
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 1 + req.points.size());
    std::size_t at = lines[1].find("\"warmupCycles\"");
    ASSERT_NE(at, std::string::npos);
    lines[1].insert(at, "\"overrides\": {\"predictorShift\": 9}, ");
    {
        std::ofstream out(path, std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }
    try {
        runJournaled(req, "overrides");
        FAIL() << "expected JournalError";
    } catch (const JournalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find(path + " line 2 is corrupt"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("predictorShift must be at most 6"),
                  std::string::npos)
            << what;
    }
}

TEST(Journal, V1JournalNamesTheFileToDelete)
{
    SweepRequest req = smallRequest(freshDir("journal_v1"));
    std::string path = SweepJournal::pathFor(req.checkpointDir, "v1");
    {
        std::ofstream out(path);
        out << "{\"schema\": \"smtfetch-journal-v1\", \"bench\": "
               "\"v1\", \"requestKey\": \""
            << sweepRequestKey(req) << "\", \"points\": "
            << req.points.size() << "}\n";
    }
    try {
        runJournaled(req, "v1");
        FAIL() << "expected JournalError";
    } catch (const JournalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("delete it to start over"),
                  std::string::npos)
            << what;
    }
}
