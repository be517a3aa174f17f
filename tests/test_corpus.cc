/**
 * @file
 * Trace-corpus manifest tests: sha256 correctness, manifest
 * generation and loading, per-entry validation (missing file,
 * checksum mismatch, version/benchmark/count skew), and resolution
 * of {"corpus", "mix"} workload entries through SweepSpec.
 */

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/sweep_spec.hh"
#include "util/sha256.hh"
#include "workload/corpus.hh"
#include "workload/profiles.hh"
#include "workload/program_builder.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"

using namespace smt;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** Record `n` synthetic records of `profile` at thread slot 0. */
void
recordTrace(const std::string &profile, const std::string &path,
            std::size_t n)
{
    BenchmarkImage img =
        buildImage(profileFor(profile), 0x400000, 0x40000000, 0);
    SyntheticTraceStream stream(img);
    TraceFileHeader hdr;
    hdr.benchmark = profile;
    hdr.codeBase = img.program.base();
    hdr.dataBase = img.dataBase;
    TraceWriter writer(path, hdr);
    stream.setRecorder(&writer);
    for (std::size_t i = 0; i < n; ++i)
        stream.next();
    writer.close();
}

/** Build a two-trace corpus under TempDir; returns manifest path. */
std::string
makeCorpus()
{
    const std::string dir = ::testing::TempDir();
    recordTrace("gzip", dir + "corpus_gzip.trc", 50);
    recordTrace("mcf", dir + "corpus_mcf.trc", 60);

    CorpusManifest m;
    m.path = dir + "corpus_manifest.json";
    m.entries.push_back(describeTrace(dir + "corpus_gzip.trc",
                                      "corpus_gzip.trc"));
    m.entries.push_back(describeTrace(dir + "corpus_mcf.trc",
                                      "corpus_mcf.trc"));
    writeCorpusManifest(m);
    return m.path;
}

/** EXPECT a CorpusError whose message contains a fragment. */
template <typename Fn>
void
expectCorpusError(Fn fn, const std::string &fragment)
{
    try {
        fn();
        FAIL() << "expected CorpusError containing \"" << fragment
               << "\"";
    } catch (const CorpusError &e) {
        EXPECT_NE(std::string(e.what()).find(fragment),
                  std::string::npos)
            << "message: " << e.what();
    }
}

} // namespace

TEST(Sha256, MatchesKnownVectors)
{
    // FIPS 180-4 test vectors.
    EXPECT_EQ(sha256Hex("", 0),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc", 3),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    const std::string two_blocks =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    EXPECT_EQ(sha256Hex(two_blocks.data(), two_blocks.size()),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");

    // Streaming across block boundaries agrees with one-shot.
    Sha256 ctx;
    for (char c : two_blocks)
        ctx.update(&c, 1);
    EXPECT_EQ(ctx.hexDigest(),
              sha256Hex(two_blocks.data(), two_blocks.size()));

    // File digest agrees with the in-memory digest.
    const std::string path = tempPath("digest.bin");
    writeFile(path, two_blocks);
    EXPECT_EQ(sha256File(path),
              sha256Hex(two_blocks.data(), two_blocks.size()));
}

TEST(Corpus, ManifestRoundTripAndLookup)
{
    const std::string manifest_path = makeCorpus();
    CorpusManifest m = loadCorpusManifest(manifest_path);
    ASSERT_EQ(m.entries.size(), 2u);
    EXPECT_EQ(m.entries[0].benchmark, "gzip");
    EXPECT_EQ(m.entries[0].records, 50u);
    EXPECT_EQ(m.entries[0].traceVersion, traceFormatVersion);
    EXPECT_EQ(m.entries[0].path, "corpus_gzip.trc");
    // Listed paths resolve relative to the manifest's directory.
    EXPECT_EQ(m.entries[0].resolvedPath,
              ::testing::TempDir() + "corpus_gzip.trc");

    const CorpusEntry &mcf = m.find("mcf");
    EXPECT_EQ(mcf.records, 60u);
    validateCorpusEntry(m, m.entries[0]);
    validateCorpusEntry(m, mcf);

    expectCorpusError([&] { m.find("vortex"); },
                      "available: gzip, mcf");
}

TEST(Corpus, MalformedManifestsAreActionable)
{
    const std::string path = tempPath("bad_manifest.json");
    auto load = [&](const std::string &text) {
        writeFile(path, text);
        loadCorpusManifest(path);
    };

    expectCorpusError(
        [&] { loadCorpusManifest(tempPath("absent.json")); },
        "cannot open");
    expectCorpusError([&] { load("{nope"); }, "not valid JSON");
    expectCorpusError([&] { load("[]"); }, "must be a JSON object");
    expectCorpusError([&] { load("{\"traces\": []}"); },
                      "\"formatVersion\"");
    expectCorpusError(
        [&] { load("{\"formatVersion\": 99, \"traces\": []}"); },
        "formatVersion 99");
    expectCorpusError([&] { load("{\"formatVersion\": 1}"); },
                      "\"traces\"");
    expectCorpusError(
        [&] {
            load("{\"formatVersion\": 1, \"traces\": [{}]}");
        },
        "missing the required \"path\"");
    expectCorpusError(
        [&] {
            load("{\"formatVersion\": 1, \"traces\": [{\"path\": "
                 "\"a.trc\", \"sha256\": \"zz\", \"benchmark\": "
                 "\"gzip\", \"records\": 1, \"traceVersion\": 2}]}");
        },
        "64 lowercase hex");

    const std::string digest(64, 'a');
    const std::string entry =
        "{\"path\": \"a.trc\", \"sha256\": \"" + digest +
        "\", \"benchmark\": \"gzip\", \"records\": 1, "
        "\"traceVersion\": 2}";
    expectCorpusError(
        [&] {
            load("{\"formatVersion\": 1, \"traces\": [" + entry +
                 ", " + entry + "]}");
        },
        "more than once");
}

TEST(Corpus, EntryValidationCatchesSkew)
{
    const std::string manifest_path = makeCorpus();
    CorpusManifest m = loadCorpusManifest(manifest_path);

    // Missing file.
    {
        CorpusEntry gone = m.entries[0];
        gone.resolvedPath = tempPath("vanished.trc");
        expectCorpusError([&] { validateCorpusEntry(m, gone); },
                          "missing file");
    }
    // Checksum mismatch after the trace is modified.
    {
        const std::string copy = tempPath("tampered.trc");
        std::ifstream src(m.entries[0].resolvedPath,
                          std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(src)),
                          std::istreambuf_iterator<char>());
        bytes.back() = static_cast<char>(bytes.back() ^ 1);
        writeFile(copy, bytes);
        CorpusEntry tampered = m.entries[0];
        tampered.resolvedPath = copy;
        expectCorpusError([&] { validateCorpusEntry(m, tampered); },
                          "checksum mismatch");
    }
    // Version skew: the manifest pins a revision the file is not.
    {
        CorpusEntry skewed = m.entries[0];
        skewed.traceVersion = traceFormatVersion + 1;
        expectCorpusError([&] { validateCorpusEntry(m, skewed); },
                          "format version skew");
    }
    // Benchmark label / header disagreement.
    {
        CorpusEntry mislabeled = m.entries[0];
        mislabeled.benchmark = "mcf";
        mislabeled.resolvedPath = m.entries[0].resolvedPath;
        expectCorpusError(
            [&] { validateCorpusEntry(m, mislabeled); },
            "benchmark skew");
    }
    // Record-count disagreement.
    {
        CorpusEntry wrong = m.entries[0];
        wrong.records += 5;
        expectCorpusError([&] { validateCorpusEntry(m, wrong); },
                          "record-count skew");
    }
}

TEST(Corpus, SweepSpecResolvesCorpusMixes)
{
    const std::string manifest_path = makeCorpus();
    const std::string spec_text =
        "{\"name\": \"corpus-test\", \"warmupCycles\": 100, "
        "\"measureCycles\": 100, \"engines\": [\"gshare+BTB\"], "
        "\"policies\": [\"2.8\"], \"workloads\": [{\"corpus\": \"" +
        manifest_path + "\", \"mix\": [\"mcf\", \"gzip\"]}]}";

    SweepSpec spec = SweepSpec::fromString(spec_text, "<test>");
    ASSERT_EQ(spec.sweeps.size(), 1u);
    ASSERT_EQ(spec.sweeps[0].workloads.size(), 1u);
    const std::string &name = spec.sweeps[0].workloads[0];
    EXPECT_EQ(name, "trace:" + ::testing::TempDir() +
                        "corpus_mcf.trc," + ::testing::TempDir() +
                        "corpus_gzip.trc");

    // Unknown mix labels and missing manifests surface as spec
    // errors carrying the corpus diagnostic.
    auto parse = [&](const std::string &text) {
        SweepSpec::fromString(text, "<test>");
    };
    try {
        parse("{\"name\": \"x\", \"warmupCycles\": 1, "
              "\"measureCycles\": 1, \"engines\": [\"gshare+BTB\"], "
              "\"policies\": [\"1.8\"], \"workloads\": [{\"corpus\": "
              "\"" +
              manifest_path + "\", \"mix\": [\"vortex\"]}]}");
        FAIL() << "unknown mix label accepted";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("vortex"),
                  std::string::npos)
            << e.what();
    }
    try {
        parse("{\"name\": \"x\", \"warmupCycles\": 1, "
              "\"measureCycles\": 1, \"engines\": [\"gshare+BTB\"], "
              "\"policies\": [\"1.8\"], \"workloads\": [{\"corpus\": "
              "\"" +
              tempPath("no_manifest.json") +
              "\", \"mix\": [\"gzip\"]}]}");
        FAIL() << "missing manifest accepted";
    } catch (const std::exception &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos)
            << e.what();
    }
}
