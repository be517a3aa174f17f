/**
 * @file
 * Trace-file backend tests: encode/decode round trips in both block
 * codecs, FileTraceStream replay fidelity against the synthetic
 * source it was captured from (including the end-to-end
 * record→replay determinism oracle), and malformed-input handling —
 * every corrupt file must raise an actionable TraceFileError, never
 * UB.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"
#include "workload/profiles.hh"
#include "workload/program_builder.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"
#include "workload/workloads.hh"

using namespace smt;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

BenchmarkImage
gzipImage()
{
    return buildImage(profileFor("gzip"), 0x400000, 0x40000000, 0);
}

TraceFileHeader
headerFor(const BenchmarkImage &img, std::uint64_t seed = 0)
{
    TraceFileHeader hdr;
    hdr.benchmark = img.profile.name;
    hdr.seed = seed;
    hdr.codeBase = img.program.base();
    hdr.dataBase = img.dataBase;
    return hdr;
}

/** Record `n` synthetic records of `img` to `path`. */
std::vector<TraceRecord>
recordSynthetic(const BenchmarkImage &img, const std::string &path,
                std::size_t n,
                const TraceWriteOptions &options = TraceWriteOptions{})
{
    SyntheticTraceStream stream(img);
    TraceWriter writer(path, headerFor(img), options);
    stream.setRecorder(&writer);
    std::vector<TraceRecord> consumed;
    for (std::size_t i = 0; i < n; ++i)
        consumed.push_back(stream.next());
    writer.close();
    return consumed;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** EXPECT a TraceFileError whose message contains a fragment. */
template <typename Fn>
void
expectTraceError(Fn fn, const std::string &fragment)
{
    try {
        fn();
        FAIL() << "expected TraceFileError containing \"" << fragment
               << "\"";
    } catch (const TraceFileError &e) {
        EXPECT_NE(std::string(e.what()).find(fragment),
                  std::string::npos)
            << "message: " << e.what();
    }
}

/** A tiny valid binary trace plus its header geometry, for
 *  byte-surgery in the malformed-input tests. */
struct SmallTrace
{
    std::string path;
    std::string bytes;
    std::size_t nameLen = 0;
    std::uint32_t blockRecords = 0;

    /** Offset of the u64 recordCount field. */
    std::size_t countOffset() const { return 10 + nameLen + 24; }

    /** Offset of the extension header (codec byte). */
    std::size_t extOffset() const { return countOffset() + 8; }

    /** Offset of the first block frame. */
    std::size_t firstFrameOffset() const { return extOffset() + 22; }

    /** Raw codec only: file offset of record `i`. Every block before
     *  it is full, and each block is an 8-byte frame plus payload. */
    std::size_t
    recordOffset(std::size_t i) const
    {
        const std::size_t n = blockRecords;
        const std::size_t stride = 8 + n * 20;
        return firstFrameOffset() + 8 + (i / n) * stride + (i % n) * 20;
    }
};

/** Raw 4-record blocks: records sit at computable file offsets. */
constexpr TraceWriteOptions smallRawBlocks{.codec = traceCodecRaw,
                                           .blockRecords = 4};

SmallTrace
makeSmallTrace(const BenchmarkImage &img, std::size_t records = 4,
               const TraceWriteOptions &options = smallRawBlocks)
{
    SmallTrace t;
    t.path = tempPath("small.trc");
    recordSynthetic(img, t.path, records, options);
    t.bytes = readFile(t.path);
    t.nameLen = img.profile.name.size();
    t.blockRecords = options.blockRecords;
    return t;
}

/** Read every record of `path`, letting a decode error escape. */
void
readAll(const std::string &path)
{
    TraceReader r(path);
    PackedTraceRecord rec;
    while (r.next(rec)) {
    }
}

/** Are two records the same correct-path instruction? */
void
expectSameRecord(const TraceRecord &got, const TraceRecord &want,
                 std::size_t index)
{
    EXPECT_EQ(got.si, want.si) << "record " << index;
    EXPECT_EQ(got.taken, want.taken) << "record " << index;
    EXPECT_EQ(got.nextPc, want.nextPc) << "record " << index;
    EXPECT_EQ(got.memAddr, want.memAddr) << "record " << index;
}

/** Save `src` and restore it into `dst` through the codec. */
void
roundTrip(const TraceSource &src, TraceSource &dst)
{
    CheckpointWriter w("<trace-test>", "k");
    w.begin("stream");
    src.save(w);
    w.end();
    const std::string bytes = w.finish();
    CheckpointReader r(bytes, "<trace-test>");
    r.begin("stream");
    dst.restore(r);
    r.end();
    r.finish();
}

/** Run one grid point through the request API. */
ExperimentResult
runPoint(Cycle warmup, Cycle measure, std::uint64_t seed,
         GridPoint point)
{
    SweepRequest request;
    request.points = {std::move(point)};
    request.warmupCycles = warmup;
    request.measureCycles = measure;
    request.seed = seed;
    return ExperimentRunner().run(request).results.at(0);
}

} // namespace

TEST(TraceFile, BinaryRoundTripPreservesRecords)
{
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("roundtrip.trc");
    auto originals = recordSynthetic(img, path, 3000);

    TraceReader reader(path);
    EXPECT_EQ(reader.header().benchmark, "gzip");
    EXPECT_EQ(reader.header().version, traceFormatVersion);
    EXPECT_EQ(reader.header().codeBase, img.program.base());
    EXPECT_EQ(reader.header().dataBase, img.dataBase);
    ASSERT_EQ(reader.header().recordCount, originals.size());

    PackedTraceRecord rec;
    for (const TraceRecord &orig : originals) {
        ASSERT_TRUE(reader.next(rec));
        EXPECT_EQ(rec.pc, orig.si->pc);
        EXPECT_EQ(rec.nextPc, orig.nextPc);
        EXPECT_EQ(rec.kind, orig.si->op);
        EXPECT_EQ(rec.taken, orig.taken);
        EXPECT_EQ(rec.memAddr, orig.memAddr);
        unsigned deps = (orig.si->src1 != invalidReg ? 1 : 0) +
                        (orig.si->src2 != invalidReg ? 1 : 0);
        EXPECT_EQ(rec.depDepth, deps);
    }
    EXPECT_FALSE(reader.next(rec));
}

TEST(TraceFile, RecorderSkipsReplayedRecords)
{
    // Rewound-and-redelivered records must not be captured twice:
    // the file is the generated sequence, not the consumption log.
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("rewind.trc");

    SyntheticTraceStream stream(img);
    TraceWriter writer(path, headerFor(img));
    stream.setRecorder(&writer);
    for (int i = 0; i < 100; ++i)
        stream.next();
    stream.rewindTo(40);
    for (int i = 0; i < 80; ++i)
        stream.next();
    writer.close();

    EXPECT_EQ(writer.recordsWritten(), 120u);
    EXPECT_EQ(readTraceHeader(path).recordCount, 120u);
}

TEST(TraceFile, FileStreamReplaysSyntheticExactly)
{
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("replay.trc");
    auto originals = recordSynthetic(img, path, 2000);

    FileTraceStream replay(img, path);
    for (const TraceRecord &orig : originals) {
        EXPECT_EQ(replay.peekPc(), orig.si->pc);
        TraceRecord rec = replay.next();
        EXPECT_EQ(rec.si, orig.si);
        EXPECT_EQ(rec.taken, orig.taken);
        EXPECT_EQ(rec.nextPc, orig.nextPc);
        EXPECT_EQ(rec.memAddr, orig.memAddr);
    }
    EXPECT_EQ(replay.stats().insts, 2000u);

    // The replay ring works on file streams too.
    replay.rewindTo(1500);
    EXPECT_EQ(replay.next().si, originals[1500].si);
}

TEST(TraceFile, ExhaustedTraceIsActionable)
{
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("short.trc");
    recordSynthetic(img, path, 50);

    FileTraceStream replay(img, path);
    for (int i = 0; i < 50; ++i)
        replay.next();
    expectTraceError([&] { replay.next(); }, "exhausted after 50");
}

TEST(TraceFile, BatchedReplayEndsExactlyAtTheLastRecord)
{
    // 200 records: three full refill batches plus a partial one, in
    // v2 blocks whose boundaries fall inside batches.
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("batch_end.trc");
    TraceWriteOptions opt;
    opt.blockRecords = 48;
    auto originals = recordSynthetic(img, path, 200, opt);
    ASSERT_NE(originals.size() % TraceSource::batchRecords, 0u);

    FileTraceStream replay(img, path);
    for (std::size_t i = 0; i < originals.size(); ++i)
        expectSameRecord(replay.next(), originals[i], i);
    expectTraceError([&] { replay.peek(); }, "exhausted after 200");
    expectTraceError([&] { replay.next(); }, "exhausted after 200");
}

TEST(TraceFile, BatchStopsShortOfACorruptRecord)
{
    // Record 100 carries an unknown flag bit. The batch that reaches
    // it must still deliver records 0..99 and raise the record's own
    // error only when record 100 is consumed.
    BenchmarkImage img = gzipImage();
    SmallTrace t = makeSmallTrace(img, 150);
    std::string bytes = t.bytes;
    const std::size_t info = t.recordOffset(100) + 8;
    bytes[info] = static_cast<char>(bytes[info] | 0x80);
    std::string path = tempPath("batch_corrupt.trc");
    writeFile(path, bytes);

    FileTraceStream replay(img, path);
    for (int i = 0; i < 100; ++i)
        replay.next();
    expectTraceError([&] { replay.next(); }, "record 100");
}

TEST(TraceFile, BrokenRecordChainIsActionable)
{
    // Record 50's pc moves to another instruction of the same op
    // kind, so the pc-in-image and op-kind checks both pass. The raw
    // codec has no checksum: only the chain of next pcs catches it,
    // as an error naming the file and the record, not a fetch panic.
    BenchmarkImage img = gzipImage();
    std::vector<PackedTraceRecord> recs;
    {
        TraceReader src(makeSmallTrace(img, 100).path);
        PackedTraceRecord rec;
        while (src.next(rec))
            recs.push_back(rec);
    }
    const std::size_t broken = 50;
    bool moved = false;
    for (const PackedTraceRecord &other : recs) {
        if (other.kind == recs[broken].kind &&
            other.pc != recs[broken].pc) {
            recs[broken].pc = other.pc;
            moved = true;
            break;
        }
    }
    ASSERT_TRUE(moved);
    const std::string path = tempPath("broken_chain.trc");
    TraceWriter w(path, headerFor(img), smallRawBlocks);
    for (const PackedTraceRecord &rec : recs)
        w.append(rec);
    w.close();

    FileTraceStream replay(img, path);
    for (std::size_t i = 0; i < broken; ++i)
        replay.next();
    try {
        replay.next();
        FAIL() << "broken record chain went undetected";
    } catch (const TraceFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path + ": record 50 pc "), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("does not follow the previous record's "
                           "next pc"),
                  std::string::npos)
            << msg;
    }
}

TEST(TraceFile, PeekAheadAcrossBatchesMatchesNext)
{
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("peek_batches.trc");
    recordSynthetic(img, path, 1000);

    SyntheticTraceStream synthetic(img);
    FileTraceStream file(img, path);
    for (TraceSource *src : {static_cast<TraceSource *>(&synthetic),
                             static_cast<TraceSource *>(&file)}) {
        // Start just short of the first batch boundary and look far
        // enough ahead to need three more refills.
        for (int i = 0; i < 60; ++i)
            src->next();
        std::vector<TraceRecord> ahead;
        for (std::uint64_t k = 0; k < 200; ++k)
            ahead.push_back(src->peekAhead(k));
        for (std::size_t k = 0; k < ahead.size(); ++k)
            expectSameRecord(src->next(), ahead[k], 60 + k);
        EXPECT_EQ(src->stats().insts, 260u);
    }
}

TEST(TraceFile, MidBatchCheckpointResumesIdentically)
{
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("mid_batch.trc");
    TraceWriteOptions opt;
    opt.blockRecords = 40;
    recordSynthetic(img, path, 1000, opt);

    auto check = [](TraceSource &reference, TraceSource &live,
                    TraceSource &restored) {
        for (int i = 0; i < 37; ++i) {
            reference.next();
            live.next();
        }
        live.peekAhead(90); // pending now spans two batches
        roundTrip(live, restored);
        EXPECT_EQ(restored.position(), 37u);
        for (std::size_t i = 37; i < 600; ++i) {
            const TraceRecord want = reference.next();
            expectSameRecord(restored.next(), want, i);
        }
        EXPECT_EQ(restored.stats().insts, reference.stats().insts);
    };
    {
        SCOPED_TRACE("synthetic");
        SyntheticTraceStream reference(img), live(img), restored(img);
        check(reference, live, restored);
    }
    {
        SCOPED_TRACE("file");
        FileTraceStream reference(img, path), live(img, path),
            restored(img, path);
        check(reference, live, restored);
    }
}

TEST(TraceFile, CheckpointsInTheUnbatchedLayoutRestore)
{
    // Before batching, a stream held at most one generated-but-not-
    // consumed record ("upcoming") plus a lookahead list that only
    // peekAhead filled. Checkpoints written in that layout, with or
    // without an upcoming record, must resume on the same records.
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("unbatched.trc");
    auto originals = recordSynthetic(img, path, 300);
    constexpr std::size_t consumed = 100;

    for (bool upcoming : {true, false}) {
        SCOPED_TRACE(upcoming ? "upcoming" : "lookahead only");
        const std::size_t lookahead = upcoming ? 0 : 3;
        const std::size_t pending = (upcoming ? 1 : 0) + lookahead;

        TraceStats st;
        for (std::size_t i = 0; i < consumed; ++i) {
            const StaticInst &si = *originals[i].si;
            ++st.insts;
            st.ctis += si.isControl();
            st.takenCtis += si.isControl() && originals[i].taken;
            st.condBranches += si.isConditional();
            st.takenCond += si.isConditional() && originals[i].taken;
            st.loads += si.isLoad();
            st.stores += si.isStore();
        }
        auto record = [&](CheckpointWriter &w, const TraceRecord &rec) {
            w.u64(rec.si->pc);
            w.b(rec.taken);
            w.u64(rec.nextPc);
            w.u64(rec.memAddr);
        };
        std::string bytes;
        {
            CheckpointWriter w("<trace-test>", "k");
            w.begin("stream");
            for (std::uint64_t v : {st.insts, st.ctis, st.condBranches,
                                    st.takenCtis, st.takenCond,
                                    st.loads, st.stores})
                w.u64(v);
            w.u64(consumed); // records consumed
            w.u64(consumed); // next record to deliver
            w.b(upcoming);
            if (upcoming)
                record(w, originals[consumed]);
            w.u32(static_cast<std::uint32_t>(lookahead));
            for (std::size_t i = 0; i < lookahead; ++i)
                record(w, originals[consumed + i]);
            w.u64(0); // replay window start
            for (std::size_t i = 0; i < consumed; ++i)
                record(w, originals[i]);
            w.u64(consumed + pending); // file position
            w.end();
            bytes = w.finish();
        }
        FileTraceStream restored(img, path);
        CheckpointReader r(bytes, "<trace-test>");
        r.begin("stream");
        restored.restore(r);
        r.end();
        r.finish();

        for (std::size_t i = consumed; i < originals.size(); ++i)
            expectSameRecord(restored.next(), originals[i], i);
        EXPECT_EQ(restored.stats().insts, originals.size());
        restored.rewindTo(40);
        expectSameRecord(restored.next(), originals[40], 40);
    }
}

TEST(TraceFile, ImageMismatchIsDetected)
{
    BenchmarkImage gzip = gzipImage();
    std::string path = tempPath("mismatch.trc");
    recordSynthetic(gzip, path, 10);

    BenchmarkImage mcf =
        buildImage(profileFor("mcf"), 0x400000, 0x40000000, 0);
    expectTraceError([&] { FileTraceStream s(mcf, path); },
                     "recorded for benchmark \"gzip\"");

    BenchmarkImage shifted =
        buildImage(profileFor("gzip"), 0x500000, 0x40000000, 0);
    expectTraceError([&] { FileTraceStream s(shifted, path); },
                     "address bases");
}

TEST(TraceFile, MalformedBinaryInputsAreActionable)
{
    BenchmarkImage img = gzipImage();
    SmallTrace t = makeSmallTrace(img);

    // Bad magic.
    {
        std::string bad = t.bytes;
        bad[0] = 'X';
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); }, "bad magic");
    }
    // Version skew (only version 2 is readable).
    {
        std::string bad = t.bytes;
        bad[6] = 9;
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); },
                         "format version 9");
    }
    // Truncated fixed prelude.
    {
        writeFile(t.path, t.bytes.substr(0, 7));
        expectTraceError([&] { TraceReader r(t.path); },
                         "truncated header");
    }
    // Truncated inside the name/tail region.
    {
        writeFile(t.path, t.bytes.substr(0, 12));
        expectTraceError([&] { TraceReader r(t.path); },
                         "truncated header");
    }
    // Name length overflowing the header.
    {
        std::string bad = t.bytes;
        bad[8] = static_cast<char>(0xff);
        bad[9] = static_cast<char>(0xff);
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); },
                         "overflows the header");
    }
    // Record count promising more records than the blocks hold.
    {
        std::string bad = t.bytes;
        bad[t.countOffset()] = 99;
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); },
                         "blocks for 99 records");
    }
    // Trailing garbage after the seek index.
    {
        writeFile(t.path, t.bytes + "xyz");
        expectTraceError([&] { TraceReader r(t.path); },
                         "truncated or corrupt index");
    }
    // Invalid op kind nibble in a record's info byte.
    {
        std::string bad = t.bytes;
        bad[t.recordOffset(0) + 8] = 0x0f;
        writeFile(t.path, bad);
        expectTraceError([&] { readAll(t.path); }, "invalid op kind 15");
    }
    // Unknown flag bits (forward-format records).
    {
        std::string bad = t.bytes;
        bad[t.recordOffset(0) + 8] |= 0x40;
        writeFile(t.path, bad);
        expectTraceError([&] { readAll(t.path); }, "unknown flag bits");
    }
    // Nonexistent file.
    expectTraceError([&] { TraceReader r(tempPath("nope.trc")); },
                     "cannot open");
}

TEST(TraceFile, FlatVersion1FileFailsAtOpen)
{
    // The retired flat layout: the fixed header, then packed records
    // with no block extension or index. Opening it must name the
    // version and say how to get a readable file.
    std::string bytes(traceMagic, sizeof(traceMagic));
    auto put = [&bytes](std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    put(1, 2); // version
    put(4, 2); // name length
    bytes += "gzip";

    put(0, 8);          // seed
    put(0x400000, 8);   // codeBase
    put(0x40000000, 8); // dataBase
    put(1, 8);          // one record follows
    bytes += std::string(traceRecordBytes, '\0');
    std::string path = tempPath("flat_v1.trc");
    writeFile(path, bytes);

    expectTraceError([&] { TraceReader r(path); }, "format version 1,");
    expectTraceError([&] { readTraceHeader(path); }, "re-record");
}

TEST(TraceFile, MalformedV2InputsAreActionable)
{
    BenchmarkImage img = gzipImage();
    // Tiny blocks (2 records) with the raw codec keep the byte
    // surgery below position-independent.
    TraceWriteOptions v2raw{.codec = traceCodecRaw, .blockRecords = 2};
    SmallTrace t = makeSmallTrace(img, 5, v2raw);

    // Unknown codec byte.
    {
        std::string bad = t.bytes;
        bad[t.extOffset()] = 7;
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); },
                         "unknown record-block codec 7");
    }
    // Zero block size.
    {
        std::string bad = t.bytes;
        for (int i = 0; i < 4; ++i)
            bad[t.extOffset() + 2 + i] = 0;
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); },
                         "out of range");
    }
    // Truncated seek index.
    {
        writeFile(t.path, t.bytes.substr(0, t.bytes.size() - 3));
        expectTraceError([&] { TraceReader r(t.path); },
                         "truncated or corrupt index");
    }
    // Corrupt index magic.
    {
        std::string bad = t.bytes;
        // 3 blocks of 2/2/1 records: the index trails the file.
        const std::size_t idx_magic = bad.size() - (6 + 3 * 16);
        bad[idx_magic] = 'X';
        writeFile(t.path, bad);
        expectTraceError([&] { TraceReader r(t.path); },
                         "bad seek-index magic");
    }
    // Corrupt frame: rawBytes disagreeing with the block's records.
    {
        std::string bad = t.bytes;
        bad[t.firstFrameOffset()] = 1;
        writeFile(t.path, bad);
        expectTraceError(
            [&] {
                TraceReader r(t.path);
                PackedTraceRecord rec;
                while (r.next(rec)) {
                }
            },
            "frame declares");
    }
    // Corrupt deflate payload.
    {
        TraceWriteOptions v2z{.codec = traceCodecDeflate,
                              .blockRecords = 2};
        SmallTrace z = makeSmallTrace(img, 5, v2z);
        std::string bad = z.bytes;
        bad[z.firstFrameOffset() + 8 + 4] ^= 0x5a;
        writeFile(z.path, bad);
        expectTraceError(
            [&] {
                TraceReader r(z.path);
                PackedTraceRecord rec;
                while (r.next(rec)) {
                }
            },
            "does not inflate");
    }
}

TEST(TraceFile, TraceErrorsNameFileAndByteOffset)
{
    // Every malformed-input error must name the file and the byte
    // offset of the offending structure.
    BenchmarkImage img = gzipImage();
    SmallTrace t = makeSmallTrace(img, 8);

    std::string bad = t.bytes;
    bad[t.countOffset()] = 99;
    writeFile(t.path, bad);
    try {
        TraceReader r(t.path);
        FAIL() << "corrupt record count went undetected";
    } catch (const TraceFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(t.path), std::string::npos) << msg;
        EXPECT_NE(msg.find("(byte "), std::string::npos) << msg;
    }

    // A record error in a raw block reports the record's own offset,
    // not its block's: record 6 is the third record of block 1.
    bad = t.bytes;
    const std::size_t rec_off = t.recordOffset(6);
    ASSERT_EQ(rec_off, 204u);
    bad[rec_off + 8] |= 0x40;
    writeFile(t.path, bad);
    try {
        readAll(t.path);
        FAIL() << "corrupt record went undetected";
    } catch (const TraceFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(t.path), std::string::npos) << msg;
        EXPECT_NE(msg.find("(byte 204): record 6 "), std::string::npos)
            << msg;
    }
}

TEST(TraceFile, DeflatedRecordErrorsNameBlockAndIndex)
{
    // A deflated record has no file offset: its error names the
    // block and the record's index in it instead.
    BenchmarkImage img = gzipImage();
    const std::string path = tempPath("bad_deflate.trc");
    std::vector<PackedTraceRecord> recs;
    {
        TraceReader src(makeSmallTrace(img, 8).path);
        PackedTraceRecord rec;
        while (src.next(rec))
            recs.push_back(rec);
    }
    recs[6].kind = static_cast<OpClass>(0x0f); // no such op kind
    TraceWriteOptions deflate{.codec = traceCodecDeflate,
                              .blockRecords = 4};
    TraceWriter w(path, headerFor(img), deflate);
    for (const PackedTraceRecord &rec : recs)
        w.append(rec);
    w.close();

    try {
        readAll(path);
        FAIL() << "corrupt record went undetected";
    } catch (const TraceFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path + " (block 1, record 2 of the block): "),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("record 6 has invalid op kind 15"),
                  std::string::npos)
            << msg;
    }
}

TEST(TraceFile, SkipToEdges)
{
    BenchmarkImage img = gzipImage();

    // 10 records in 2-record blocks, stored raw and deflated.
    for (std::uint8_t codec : {traceCodecRaw, traceCodecDeflate}) {
        TraceWriteOptions opt{.codec = codec, .blockRecords = 2};
        std::string path = tempPath(csprintf("skip_%u.trc", codec));
        auto originals = recordSynthetic(img, path, 10, opt);

        TraceReader seq(path);
        std::vector<PackedTraceRecord> expected(10);
        for (auto &r : expected)
            ASSERT_TRUE(seq.next(r));

        TraceReader reader(path);
        PackedTraceRecord rec;

        // Forward into the middle of a block...
        reader.skipTo(5);
        ASSERT_TRUE(reader.next(rec));
        EXPECT_EQ(rec.pc, expected[5].pc);
        EXPECT_EQ(reader.recordsRead(), 6u);

        // ...backwards to the start...
        reader.skipTo(0);
        ASSERT_TRUE(reader.next(rec));
        EXPECT_EQ(rec.pc, expected[0].pc);

        // ...landing exactly on a block boundary...
        reader.skipTo(4);
        ASSERT_TRUE(reader.next(rec));
        EXPECT_EQ(rec.pc, expected[4].pc);

        // ...to the exact end of the trace (clean EOT, no error)...
        reader.skipTo(10);
        EXPECT_FALSE(reader.next(rec));

        // ...and past the end, which is an error naming both counts.
        expectTraceError([&] { reader.skipTo(11); },
                         "cannot skip to record 11");
    }
}

TEST(TraceFile, CodecsAndBlockSizesReplayBitIdentical)
{
    // The same logical trace stored raw or deflated, in full or odd
    // block sizes, must replay to identical simulation results.
    std::string base = tempPath("ident.trc");

    GridPoint record_point{"gzip", EngineKind::GshareBtb, 1, 8};
    record_point.recordPath = base; // default codec and block size
    runPoint(1000, 4000, 0, record_point);

    auto transcode = [&](const std::string &dst,
                         const TraceWriteOptions &opt) {
        TraceReader src(base);
        TraceWriter dst_w(dst, src.header(), opt);
        PackedTraceRecord rec;
        while (src.next(rec))
            dst_w.append(rec);
        dst_w.close();
    };
    std::vector<std::string> files;
    for (std::uint32_t block : {traceBlockRecordsDefault, 7u}) {
        for (std::uint8_t codec : {traceCodecRaw, traceCodecDeflate}) {
            TraceWriteOptions opt{.codec = codec, .blockRecords = block};
            files.push_back(tempPath(csprintf("id%zu.trc", files.size())));
            transcode(files.back(), opt);
        }
    }

    auto replay = [&](const std::string &path) {
        GridPoint p{"trace:" + path, EngineKind::GshareBtb, 1, 8};
        return runPoint(1000, 4000, 0, p);
    };
    ExperimentResult original = replay(base);
    EXPECT_GT(original.ipc, 0.0);
    for (const std::string &file : files)
        EXPECT_EQ(replay(file).statsJson, original.statsJson) << file;
}

TEST(TraceFile, CheckpointRestoreMidBlockInV2Stream)
{
    // Saving a streamed v2 replay mid-block and restoring must
    // reposition via the seek index and continue identically.
    BenchmarkImage img = gzipImage();
    TraceWriteOptions opt;
    opt.blockRecords = 8;
    std::string path = tempPath("midblock.trc");
    recordSynthetic(img, path, 100, opt);

    FileTraceStream reference(img, path);
    FileTraceStream live(img, path);
    for (int i = 0; i < 21; ++i) { // mid way into block 2
        reference.next();
        live.next();
    }

    CheckpointWriter w("<trace-test>", "k");
    w.begin("stream");
    live.save(w);
    w.end();
    const std::string bytes = w.finish();

    FileTraceStream restored(img, path);
    CheckpointReader r(bytes, "<trace-test>");
    r.begin("stream");
    restored.restore(r);
    r.end();
    r.finish();

    for (int i = 21; i < 100; ++i) {
        TraceRecord want = reference.next();
        TraceRecord got = restored.next();
        EXPECT_EQ(got.si, want.si);
        EXPECT_EQ(got.nextPc, want.nextPc);
        EXPECT_EQ(got.memAddr, want.memAddr);
    }
}

TEST(TraceFile, RecordReplayRoundTripIsBitIdentical)
{
    // The permanent determinism oracle: a synthetic fig2-style run
    // captured with the record hook and replayed through
    // FileTraceStream must reproduce IPFC, IPC and the full stats
    // registry bit for bit.
    std::string base = tempPath("oracle.trc");

    GridPoint record_point{"2_MIX", EngineKind::GshareBtb, 1, 8};
    record_point.recordPath = base;
    ExperimentResult recorded = runPoint(2000, 8000, 0, record_point);

    std::string t0 = Simulator::recordPathFor(base, 0, 2);
    std::string t1 = Simulator::recordPathFor(base, 1, 2);
    EXPECT_NE(t0, base);

    GridPoint replay_point{"trace:" + t0 + "," + t1,
                           EngineKind::GshareBtb, 1, 8};
    ExperimentResult replayed = runPoint(2000, 8000, 0, replay_point);

    EXPECT_EQ(recorded.ipfc, replayed.ipfc);
    EXPECT_EQ(recorded.ipc, replayed.ipc);
    EXPECT_EQ(recorded.statsJson, replayed.statsJson);
    EXPECT_GT(recorded.ipc, 0.0);
}

TEST(TraceFile, RecordPadExtendsTraceWithoutChangingStats)
{
    std::string plain = tempPath("pad0.trc");
    std::string padded = tempPath("pad1.trc");

    GridPoint p{"gzip", EngineKind::GshareBtb, 1, 8};
    p.recordPath = plain;
    ExperimentResult a = runPoint(1000, 4000, 0, p);

    p.recordPath = padded;
    p.recordPadCycles = 2000;
    ExperimentResult b = runPoint(1000, 4000, 0, p);

    // Padding adds records for replay headroom...
    EXPECT_GT(readTraceHeader(padded).recordCount,
              readTraceHeader(plain).recordCount);
    // ...but the recorded run reports the unpadded measurement,
    // including the full registry dump (engine.*/mem.* counters must
    // not leak pad-window activity).
    EXPECT_EQ(a.ipfc, b.ipfc);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

TEST(TraceFile, ReRecordingAReplayKeepsTheImageSeed)
{
    // A replayed thread's image is built from its trace header's
    // seed; re-recording that run must stamp the same seed, or the
    // second-generation file names an image it was not captured
    // against.
    std::string first = tempPath("gen1.trc");
    std::string second = tempPath("gen2.trc");

    GridPoint p{"gzip", EngineKind::GshareBtb, 1, 8};
    p.recordPath = first;
    ExperimentResult gen1 = runPoint(500, 2000, 7, p);
    EXPECT_EQ(readTraceHeader(first).seed, 7u);

    GridPoint q{"trace:" + first, EngineKind::GshareBtb, 1, 8};
    q.recordPath = second;
    ExperimentResult gen2 = runPoint(500, 2000, 0, q);
    EXPECT_EQ(readTraceHeader(second).seed, 7u);

    // The second-generation trace replays cleanly and reproduces the
    // original run.
    GridPoint q2{"trace:" + second, EngineKind::GshareBtb, 1, 8};
    ExperimentResult gen3 = runPoint(500, 2000, 0, q2);
    EXPECT_EQ(gen1.ipc, gen2.ipc);
    EXPECT_EQ(gen1.statsJson, gen3.statsJson);
    EXPECT_GT(gen3.ipc, 0.0);
}

TEST(TraceFile, TraceWorkloadSpecHelpers)
{
    BenchmarkImage img = gzipImage();
    std::string path = tempPath("wl.trc");
    recordSynthetic(img, path, 20);

    EXPECT_TRUE(isTraceWorkloadName("trace:" + path));
    EXPECT_FALSE(isTraceWorkloadName("2_MIX"));

    WorkloadSpec spec = traceWorkload("trace:" + path);
    ASSERT_EQ(spec.benchmarks.size(), 1u);
    EXPECT_EQ(spec.benchmarks[0], "gzip");
    ASSERT_EQ(spec.traces.size(), 1u);
    EXPECT_EQ(spec.traces[0], path);

    expectTraceError([] { traceWorkload("trace:"); },
                     "empty trace path");
    expectTraceError([] { traceWorkload("2_MIX"); },
                     "not a trace workload");
}

/** EXPECT readTraceHeader and traceWorkload to reject `path` for its
 *  unknown benchmark `name`, naming the file and the known ones. */
void
expectUnknownBenchmark(const std::string &path, const std::string &name)
{
    const std::string named =
        path + ": trace was recorded for unknown benchmark \"" + name;
    expectTraceError([&] { readTraceHeader(path); }, named);
    expectTraceError([&] { readTraceHeader(path); }, "(known: gzip, ");
    expectTraceError([&] { traceWorkload("trace:" + path); }, named);
}

TEST(TraceFile, UnknownBenchmarkInABinaryHeaderIsActionable)
{
    SmallTrace t = makeSmallTrace(gzipImage());
    std::string bytes = t.bytes;
    const std::size_t at = bytes.find("gzip");
    ASSERT_NE(at, std::string::npos);
    bytes.replace(at, 4, "gzzz");
    std::string path = tempPath("gzzz.trc");
    writeFile(path, bytes);
    expectUnknownBenchmark(path, "gzzz");
}

TEST(TraceFile, TextTraceFailsWithBadMagic)
{
    // There is one encoding: a file in the retired line-oriented text
    // format is rejected by the magic check, naming the file, both by
    // the reader and by trace workload construction.
    std::string path = tempPath("fixture.strc");
    writeFile(path, "strc v1\n"
                    "benchmark gzip\n"
                    "r 0x400000 0x400004 alu - 2\n");
    const std::string named = path + " (byte 0): bad magic";
    expectTraceError([&] { TraceReader r(path); }, named);
    expectTraceError([&] { readTraceHeader(path); }, named);
    expectTraceError([&] { traceWorkload("trace:" + path); }, named);
}
