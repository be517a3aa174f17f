#include "workload/trace_file.hh"

#include <algorithm>
#include <utility>

#include <zlib.h>

#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "workload/profiles.hh"

namespace smt
{

namespace
{

/** @name Little-endian scalar encoding (host-endianness agnostic). */
/// @{
void
put16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
put32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
put64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint16_t
get16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
get32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t
get64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}
/// @}

/** Info-byte layout: op kind nibble, CTI direction, mem-class flag. */
constexpr unsigned infoKindMask = 0x0f;
constexpr unsigned infoTakenBit = 0x10;
constexpr unsigned infoMemBit = 0x20;
constexpr unsigned infoKnownBits = 0x3f;

constexpr unsigned maxOpKind =
    static_cast<unsigned>(OpClass::JumpIndirect);

/** Fixed leading header chunk: magic + version + name length. */
constexpr std::size_t headPreludeBytes = sizeof(traceMagic) + 2 + 2;

/** Header bytes after the name: seed, codeBase, dataBase, count. */
constexpr std::size_t headTailBytes = 4 * 8;

/** Block extension following the fixed header: codec u8, reserved
 *  u8, blockRecords u32, indexOffset u64, blockCount u64 (the last
 *  two backpatched on close). */
constexpr std::size_t headExtBytes = 1 + 1 + 4 + 8 + 8;

/** Bytes per seek-index entry: fileOffset u64, firstRecord u64. */
constexpr std::size_t indexEntryBytes = 16;

/** Per-block frame prelude: rawBytes u32, storedBytes u32. */
constexpr std::size_t blockFrameBytes = 8;

/** Sanity cap on the benchmark-name length field. */
constexpr std::size_t maxNameLen = 255;

/** Sanity cap on records-per-block (1 GB of raw payload). */
constexpr std::uint32_t maxBlockRecords = 1u << 22;

/** Compress one raw record block. */
std::string
deflateBlock(const std::string &raw, const std::string &path)
{
    uLongf bound = compressBound(static_cast<uLong>(raw.size()));
    std::string out(bound, '\0');
    if (compress2(reinterpret_cast<Bytef *>(out.data()), &bound,
                  reinterpret_cast<const Bytef *>(raw.data()),
                  static_cast<uLong>(raw.size()),
                  Z_BEST_SPEED) != Z_OK)
        throw TraceFileError(path +
                             ": deflate failed on a record block");
    out.resize(bound);
    return out;
}

/** Encode pc as a code-relative instruction-word index. */
std::uint32_t
packWord(Addr addr, Addr code_base, const std::string &path,
         const char *what)
{
    if (addr < code_base || (addr - code_base) % instBytes != 0)
        throw TraceFileError(
            csprintf("%s: %s 0x%llx is not an instruction address in "
                     "the code region starting at 0x%llx",
                     path.c_str(), what, (unsigned long long)addr,
                     (unsigned long long)code_base));
    Addr word = (addr - code_base) / instBytes;
    if (word > 0xffffffffull)
        throw TraceFileError(csprintf(
            "%s: %s 0x%llx overflows the record encoding (more than "
            "2^32 instruction words past the code base 0x%llx)",
            path.c_str(), what, (unsigned long long)addr,
            (unsigned long long)code_base));
    return static_cast<std::uint32_t>(word);
}

} // namespace

// ------------------------------------------------------------- writer

TraceWriter::TraceWriter(const std::string &path,
                         const TraceFileHeader &header,
                         const TraceWriteOptions &options)
    : filePath(path), hdr(header)
{
    hdr.version = traceFormatVersion;
    hdr.recordCount = 0;
    hdr.blockCount = 0;
    hdr.indexOffset = 0;
    if (hdr.benchmark.empty() || hdr.benchmark.size() > maxNameLen)
        fail(csprintf("benchmark name \"%s\" must be 1..%zu bytes",
                      hdr.benchmark.c_str(), maxNameLen));

    hdr.codec = options.codec;
    if (hdr.codec != traceCodecRaw && hdr.codec != traceCodecDeflate)
        fail(csprintf("unknown codec %u (known: %u raw, %u deflate)",
                      hdr.codec, traceCodecRaw, traceCodecDeflate));
    hdr.blockRecords = options.blockRecords;
    if (hdr.blockRecords == 0 || hdr.blockRecords > maxBlockRecords)
        fail(csprintf("block size %u records out of range [1, %u]",
                      hdr.blockRecords, maxBlockRecords));

    os.open(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fail("cannot open for writing");

    std::string head(traceMagic, sizeof(traceMagic));
    put16(head, hdr.version);
    put16(head, static_cast<std::uint16_t>(hdr.benchmark.size()));
    head += hdr.benchmark;
    put64(head, hdr.seed);
    put64(head, hdr.codeBase);
    put64(head, hdr.dataBase);
    put64(head, 0); // recordCount, patched by close()
    head.push_back(static_cast<char>(hdr.codec));
    head.push_back(0); // reserved
    put32(head, hdr.blockRecords);
    put64(head, 0); // indexOffset, patched by close()
    put64(head, 0); // blockCount, patched by close()
    blockBuf.reserve(hdr.blockRecords * traceRecordBytes);
    os.write(head.data(), static_cast<std::streamsize>(head.size()));
}

TraceWriter::~TraceWriter()
{
    try {
        close();
    } catch (const TraceFileError &) {
        // Destruction must not throw; close() explicitly to observe
        // I/O failures.
    }
}

void
TraceWriter::append(const TraceRecord &rec)
{
    PackedTraceRecord p;
    p.pc = rec.si->pc;
    p.nextPc = rec.nextPc;
    p.memAddr = rec.memAddr;
    p.kind = rec.si->op;
    p.taken = rec.taken;
    p.depDepth = static_cast<std::uint8_t>(
        (rec.si->src1 != invalidReg ? 1 : 0) +
        (rec.si->src2 != invalidReg ? 1 : 0));
    append(p);
}

void
TraceWriter::append(const PackedTraceRecord &rec)
{
    if (closed)
        fail("append after close");

    // Pack both words before appending, so a bad address leaves no
    // partial record in the block.
    const std::uint32_t pc_word =
        packWord(rec.pc, hdr.codeBase, filePath, "record pc");
    const std::uint32_t next_word = packWord(
        rec.nextPc, hdr.codeBase, filePath, "record next-pc");
    put32(blockBuf, pc_word);
    put32(blockBuf, next_word);
    unsigned info = static_cast<unsigned>(rec.kind) & infoKindMask;
    if (rec.taken)
        info |= infoTakenBit;
    bool has_mem = rec.memAddr != invalidAddr;
    if (has_mem)
        info |= infoMemBit;
    blockBuf.push_back(static_cast<char>(info));
    blockBuf.push_back(static_cast<char>(rec.depDepth));
    put16(blockBuf, 0); // reserved
    put64(blockBuf, has_mem ? rec.memAddr : 0);
    ++count;
    if (++blockBuffered == hdr.blockRecords)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    if (blockBuffered == 0)
        return;
    index.push_back({static_cast<std::uint64_t>(os.tellp()),
                     count - blockBuffered});
    const std::string *payload = &blockBuf;
    std::string packed;
    if (hdr.codec == traceCodecDeflate) {
        packed = deflateBlock(blockBuf, filePath);
        payload = &packed;
    }
    std::string frame;
    put32(frame, static_cast<std::uint32_t>(blockBuf.size()));
    put32(frame, static_cast<std::uint32_t>(payload->size()));
    os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    os.write(payload->data(),
             static_cast<std::streamsize>(payload->size()));
    if (!os)
        fail("I/O error while writing a record block");
    blockBuf.clear();
    blockBuffered = 0;
}

void
TraceWriter::close()
{
    if (closed)
        return;
    closed = true;

    flushBlock();
    // The seek index trails the payload: magic, then one
    // (fileOffset, firstRecord) pair per block.
    hdr.indexOffset = static_cast<std::uint64_t>(os.tellp());
    hdr.blockCount = index.size();
    std::string idx(traceIndexMagic, sizeof(traceIndexMagic));
    for (const IndexEntry &e : index) {
        put64(idx, e.fileOffset);
        put64(idx, e.firstRecord);
    }
    os.write(idx.data(), static_cast<std::streamsize>(idx.size()));
    std::string ext;
    put64(ext, hdr.indexOffset);
    put64(ext, hdr.blockCount);
    os.seekp(static_cast<std::streamoff>(
        headPreludeBytes + hdr.benchmark.size() + headTailBytes + 6));
    os.write(ext.data(), static_cast<std::streamsize>(ext.size()));
    // Patch the record count now that it is known.
    std::string buf;
    put64(buf, count);
    os.seekp(static_cast<std::streamoff>(
        headPreludeBytes + hdr.benchmark.size() + headTailBytes - 8));
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    os.flush();
    if (!os)
        fail("I/O error while finalizing");
    os.close();
}

void
TraceWriter::fail(const std::string &what) const
{
    throw TraceFileError(filePath + ": " + what);
}

// ------------------------------------------------------------- reader

TraceReader::TraceReader(const std::string &path) : filePath(path)
{
    is.open(path, std::ios::binary);
    if (!is)
        throw TraceFileError(filePath + ": cannot open trace file");
    readBinaryHeader();
}

void
TraceReader::readBinaryHeader()
{
    is.seekg(0, std::ios::end);
    const std::uint64_t file_size =
        static_cast<std::uint64_t>(is.tellg());
    is.seekg(0);

    errOffset = 0;
    unsigned char prelude[headPreludeBytes];
    if (!is.read(reinterpret_cast<char *>(prelude), sizeof(prelude)))
        fail(csprintf("truncated header: file is %llu bytes, the "
                      "fixed prelude alone is %zu",
                      (unsigned long long)file_size,
                      headPreludeBytes));

    if (std::char_traits<char>::compare(
            reinterpret_cast<const char *>(prelude), traceMagic,
            sizeof(traceMagic)) != 0)
        fail("bad magic: not a smtfetch trace file (expected "
             "\"SMTTRC\") — record one with smtsim --record or "
             "tracegen");

    errOffset = sizeof(traceMagic);
    hdr.version = get16(prelude + sizeof(traceMagic));
    if (hdr.version != traceFormatVersion)
        fail(csprintf("format version %u, but this build reads "
                      "version %u — re-record the trace with this "
                      "build's --record or tracegen",
                      hdr.version, traceFormatVersion));

    errOffset = sizeof(traceMagic) + 2;
    const std::size_t name_len =
        get16(prelude + sizeof(traceMagic) + 2);
    if (name_len == 0 || name_len > maxNameLen)
        fail(csprintf("benchmark-name length %zu overflows the "
                      "header (corrupt file?)",
                      name_len));

    errOffset = headPreludeBytes;
    std::string name(name_len, '\0');
    unsigned char tail[headTailBytes];
    if (!is.read(name.data(),
                 static_cast<std::streamsize>(name_len)) ||
        !is.read(reinterpret_cast<char *>(tail), sizeof(tail)))
        fail(csprintf("truncated header: expected %zu bytes, file "
                      "is %llu",
                      headPreludeBytes + name_len + headTailBytes,
                      (unsigned long long)file_size));

    hdr.benchmark = name;
    hdr.seed = get64(tail);
    hdr.codeBase = get64(tail + 8);
    hdr.dataBase = get64(tail + 16);
    hdr.recordCount = get64(tail + 24);

    headerBytes = headPreludeBytes + name_len + headTailBytes;
    readExtension(file_size);
    readIndex();
}

void
TraceReader::readExtension(std::uint64_t file_size)
{
    errOffset = headerBytes;
    unsigned char ext[headExtBytes];
    if (!is.read(reinterpret_cast<char *>(ext), sizeof(ext)))
        fail(csprintf("truncated block extension header: expected "
                      "%zu bytes at offset %llu, file is %llu",
                      headExtBytes, (unsigned long long)headerBytes,
                      (unsigned long long)file_size));
    hdr.codec = ext[0];
    hdr.blockRecords = get32(ext + 2);
    hdr.indexOffset = get64(ext + 6);
    hdr.blockCount = get64(ext + 14);
    headerBytes += headExtBytes;

    if (hdr.codec != traceCodecRaw && hdr.codec != traceCodecDeflate)
        fail(csprintf("unknown record-block codec %u (known: %u raw, "
                      "%u deflate) — file written by a newer format "
                      "revision?",
                      hdr.codec, traceCodecRaw, traceCodecDeflate));
    if (hdr.blockRecords == 0 || hdr.blockRecords > maxBlockRecords)
        fail(csprintf("block size %u records out of range [1, %u] "
                      "(corrupt extension header?)",
                      hdr.blockRecords, maxBlockRecords));

    const std::uint64_t expect_blocks =
        (hdr.recordCount + hdr.blockRecords - 1) / hdr.blockRecords;
    if (hdr.blockCount != expect_blocks)
        fail(csprintf("header promises %llu blocks for %llu records "
                      "of %u, expected %llu — corrupt extension "
                      "header",
                      (unsigned long long)hdr.blockCount,
                      (unsigned long long)hdr.recordCount,
                      hdr.blockRecords,
                      (unsigned long long)expect_blocks));

    const std::uint64_t index_bytes =
        sizeof(traceIndexMagic) + hdr.blockCount * indexEntryBytes;
    if (hdr.indexOffset < headerBytes ||
        hdr.indexOffset > file_size ||
        file_size - hdr.indexOffset != index_bytes)
        fail(csprintf("seek index at offset %llu does not fill the "
                      "%llu bytes between the payload and the end of "
                      "the %llu-byte file — truncated or corrupt "
                      "index",
                      (unsigned long long)hdr.indexOffset,
                      (unsigned long long)index_bytes,
                      (unsigned long long)file_size));
}

void
TraceReader::readIndex()
{
    errOffset = hdr.indexOffset;
    is.seekg(static_cast<std::streamoff>(hdr.indexOffset));
    unsigned char magic[sizeof(traceIndexMagic)];
    if (!is.read(reinterpret_cast<char *>(magic), sizeof(magic)) ||
        std::char_traits<char>::compare(
            reinterpret_cast<const char *>(magic), traceIndexMagic,
            sizeof(traceIndexMagic)) != 0)
        fail("bad seek-index magic (expected \"SMTIDX\") — "
             "truncated or corrupt index");

    index.resize(hdr.blockCount);
    std::vector<unsigned char> raw(hdr.blockCount * indexEntryBytes);
    errOffset = hdr.indexOffset + sizeof(traceIndexMagic);
    if (!raw.empty() &&
        !is.read(reinterpret_cast<char *>(raw.data()),
                 static_cast<std::streamsize>(raw.size())))
        fail("truncated seek index");
    for (std::uint64_t b = 0; b < hdr.blockCount; ++b) {
        errOffset = hdr.indexOffset + sizeof(traceIndexMagic) +
                    b * indexEntryBytes;
        index[b].fileOffset = get64(raw.data() + b * indexEntryBytes);
        index[b].firstRecord =
            get64(raw.data() + b * indexEntryBytes + 8);
        if (index[b].firstRecord != b * hdr.blockRecords)
            fail(csprintf("index entry %llu starts at record %llu, "
                          "expected %llu (corrupt index)",
                          (unsigned long long)b,
                          (unsigned long long)index[b].firstRecord,
                          (unsigned long long)(b * hdr.blockRecords)));
        const std::uint64_t low =
            b == 0 ? headerBytes
                   : index[b - 1].fileOffset + blockFrameBytes;
        if (index[b].fileOffset < low ||
            index[b].fileOffset + blockFrameBytes > hdr.indexOffset)
            fail(csprintf("index entry %llu points at offset %llu, "
                          "outside the payload region (corrupt "
                          "index)",
                          (unsigned long long)b,
                          (unsigned long long)index[b].fileOffset));
    }
}

void
TraceReader::loadBlock(std::uint64_t block)
{
    const IndexEntry &e = index[block];
    errOffset = e.fileOffset;
    is.clear();
    is.seekg(static_cast<std::streamoff>(e.fileOffset));
    unsigned char frame[blockFrameBytes];
    if (!is.read(reinterpret_cast<char *>(frame), sizeof(frame)))
        fail(csprintf("truncated frame for block %llu",
                      (unsigned long long)block));
    const std::uint32_t raw_bytes = get32(frame);
    const std::uint32_t stored_bytes = get32(frame + 4);

    const std::uint64_t expect_records =
        std::min<std::uint64_t>(hdr.blockRecords,
                                hdr.recordCount - e.firstRecord);
    if (raw_bytes != expect_records * traceRecordBytes)
        fail(csprintf("block %llu frame declares %u raw bytes, "
                      "expected %llu for its %llu records (corrupt "
                      "frame)",
                      (unsigned long long)block, raw_bytes,
                      (unsigned long long)(expect_records *
                                           traceRecordBytes),
                      (unsigned long long)expect_records));
    if (stored_bytes >
        hdr.indexOffset - e.fileOffset - blockFrameBytes)
        fail(csprintf("block %llu payload (%u bytes) overruns the "
                      "seek index at offset %llu (corrupt frame)",
                      (unsigned long long)block, stored_bytes,
                      (unsigned long long)hdr.indexOffset));

    errOffset = e.fileOffset + blockFrameBytes;
    if (hdr.codec == traceCodecRaw) {
        if (stored_bytes != raw_bytes)
            fail(csprintf("raw-codec block %llu stores %u bytes but "
                          "declares %u raw (corrupt frame)",
                          (unsigned long long)block, stored_bytes,
                          raw_bytes));
        blockData.resize(raw_bytes);
        if (!is.read(blockData.data(), raw_bytes))
            fail(csprintf("truncated payload for block %llu",
                          (unsigned long long)block));
    } else {
        blockScratch.resize(stored_bytes);
        if (!is.read(blockScratch.data(), stored_bytes))
            fail(csprintf("truncated payload for block %llu",
                          (unsigned long long)block));
        blockData.resize(raw_bytes);
        uLongf dest_len = raw_bytes;
        if (uncompress(reinterpret_cast<Bytef *>(blockData.data()),
                       &dest_len,
                       reinterpret_cast<const Bytef *>(
                           blockScratch.data()),
                       stored_bytes) != Z_OK ||
            dest_len != raw_bytes)
            fail(csprintf("block %llu does not inflate to the "
                          "declared %u bytes (corrupt payload)",
                          (unsigned long long)block, raw_bytes));
    }
    curBlock = block + 1;
    blockFirst = e.firstRecord;
    blockLen = static_cast<std::uint32_t>(expect_records);
    blockPos = 0;
}

void
TraceReader::decodeRecord(PackedTraceRecord &out)
{
    const unsigned char *buf =
        reinterpret_cast<const unsigned char *>(blockData.data()) +
        static_cast<std::size_t>(blockPos) * traceRecordBytes;
    const unsigned info = buf[8];
    if ((info & ~infoKnownBits) != 0)
        recordFail(csprintf("record %llu has unknown flag bits 0x%x "
                            "set (file written by a newer format "
                            "revision?)",
                            (unsigned long long)count,
                            info & ~infoKnownBits));
    const unsigned kind = info & infoKindMask;
    if (kind > maxOpKind)
        recordFail(csprintf("record %llu has invalid op kind %u",
                            (unsigned long long)count, kind));

    out.pc = hdr.codeBase +
             static_cast<Addr>(get32(buf)) * instBytes;
    out.nextPc = hdr.codeBase +
                 static_cast<Addr>(get32(buf + 4)) * instBytes;
    out.kind = static_cast<OpClass>(kind);
    out.taken = (info & infoTakenBit) != 0;
    out.depDepth = buf[9];
    out.memAddr =
        (info & infoMemBit) != 0 ? get64(buf + 12) : invalidAddr;
}

void
TraceReader::recordFail(const std::string &what)
{
    // A raw block stores records verbatim, so the record has a file
    // offset; a deflated one only has a place in its block.
    const std::uint64_t block = curBlock - 1;
    if (hdr.codec != traceCodecRaw)
        throw TraceFileError(csprintf(
            "%s (block %llu, record %u of the block): %s",
            filePath.c_str(), (unsigned long long)block, blockPos,
            what.c_str()));
    errOffset = index[block].fileOffset + blockFrameBytes +
                blockPos * traceRecordBytes;
    fail(what);
}

bool
TraceReader::next(PackedTraceRecord &out)
{
    if (count >= hdr.recordCount)
        return false;

    if (curBlock == 0 || blockPos == blockLen)
        loadBlock(count / hdr.blockRecords);
    decodeRecord(out);
    ++blockPos;
    ++count;
    return true;
}

void
TraceReader::skipTo(std::uint64_t record_index)
{
    if (record_index > hdr.recordCount)
        fail(csprintf("cannot skip to record %llu: the trace holds "
                      "only %llu records",
                      (unsigned long long)record_index,
                      (unsigned long long)hdr.recordCount));
    count = record_index;
    if (record_index == hdr.recordCount) {
        // End-of-trace: no block need be resident.
        curBlock = 0;
        blockLen = 0;
        blockPos = 0;
        return;
    }
    const std::uint64_t block = record_index / hdr.blockRecords;
    if (curBlock != block + 1)
        loadBlock(block);
    blockPos = static_cast<std::uint32_t>(record_index - blockFirst);
}

void
TraceReader::fail(const std::string &what) const
{
    throw TraceFileError(csprintf("%s (byte %llu): %s",
                                  filePath.c_str(),
                                  (unsigned long long)errOffset,
                                  what.c_str()));
}

TraceFileHeader
readTraceHeader(const std::string &path)
{
    TraceFileHeader hdr = TraceReader(path).header();
    std::string known;
    for (const auto &p : allProfiles()) {
        if (p.name == hdr.benchmark)
            return hdr;
        known += (known.empty() ? "" : ", ") + p.name;
    }
    throw TraceFileError(csprintf(
        "%s: trace was recorded for unknown benchmark \"%s\" "
        "(known: %s)",
        path.c_str(), hdr.benchmark.c_str(), known.c_str()));
}

// -------------------------------------------------------- file stream

FileTraceStream::FileTraceStream(const BenchmarkImage &image,
                                 const std::string &path)
    : TraceSource(image), reader(path)
{
    const TraceFileHeader &h = reader.header();
    if (h.benchmark != image.profile.name)
        throw TraceFileError(csprintf(
            "%s: trace was recorded for benchmark \"%s\" but is "
            "bound to an image of \"%s\"",
            path.c_str(), h.benchmark.c_str(),
            image.profile.name.c_str()));
    if (h.codeBase != image.program.base() ||
        h.dataBase != image.dataBase)
        throw TraceFileError(csprintf(
            "%s: trace address bases (code 0x%llx, data 0x%llx) do "
            "not match the image (code 0x%llx, data 0x%llx) — was "
            "the image built with a different seed or thread slot?",
            path.c_str(), (unsigned long long)h.codeBase,
            (unsigned long long)h.dataBase,
            (unsigned long long)image.program.base(),
            (unsigned long long)image.dataBase));
}

std::size_t
FileTraceStream::generateBatch(TraceRecord *out, std::size_t n)
{
    if (deferredError)
        std::rethrow_exception(std::exchange(deferredError, nullptr));
    // Past the last record, a batch of one raises "trace exhausted".
    const std::uint64_t left =
        reader.header().recordCount - reader.recordsRead();
    n = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(left, 1, n));
    out[0] = FileTraceStream::generate();
    std::size_t k = 1;
    try {
        for (; k < n; ++k)
            out[k] = FileTraceStream::generate();
    } catch (...) {
        deferredError = std::current_exception();
    }
    return k;
}

TraceRecord
FileTraceStream::generate()
{
    PackedTraceRecord p;
    if (!reader.next(p))
        throw TraceFileError(csprintf(
            "%s: trace exhausted after %llu records — this "
            "simulation consumes more correct-path instructions "
            "than were recorded; re-record with longer windows or a "
            "--record-pad margin",
            reader.path().c_str(),
            (unsigned long long)reader.recordsRead()));

    // A correct-path trace is one chain of control flow. A broken
    // link is a corrupt payload the raw codec has no checksum for;
    // replaying it would misalign fetch with the trace.
    if (expectedPc != invalidAddr && p.pc != expectedPc)
        throw TraceFileError(csprintf(
            "%s: record %llu pc 0x%llx does not follow the previous "
            "record's next pc 0x%llx (corrupt payload)",
            reader.path().c_str(),
            (unsigned long long)(reader.recordsRead() - 1),
            (unsigned long long)p.pc,
            (unsigned long long)expectedPc));
    expectedPc = p.nextPc;

    const StaticInst *si = img.program.lookup(p.pc);
    if (si == nullptr)
        throw TraceFileError(csprintf(
            "%s: record %llu pc 0x%llx is outside the program "
            "image [0x%llx, 0x%llx)",
            reader.path().c_str(),
            (unsigned long long)(reader.recordsRead() - 1),
            (unsigned long long)p.pc,
            (unsigned long long)img.program.base(),
            (unsigned long long)img.program.limit()));
    if (si->op != p.kind)
        throw TraceFileError(csprintf(
            "%s: record %llu op kind \"%s\" does not match the "
            "program's \"%s\" at pc 0x%llx — trace/program mismatch "
            "(different profile or seed?)",
            reader.path().c_str(),
            (unsigned long long)(reader.recordsRead() - 1),
            std::string(opName(p.kind)).c_str(),
            std::string(opName(si->op)).c_str(),
            (unsigned long long)p.pc));

    TraceRecord rec;
    rec.si = si;
    rec.taken = p.taken;
    rec.nextPc = p.nextPc;
    rec.memAddr = p.memAddr;
    return rec;
}

void
FileTraceStream::save(CheckpointWriter &w) const
{
    saveBase(w);
    w.u64(generatedRecords());
}

void
FileTraceStream::restore(CheckpointReader &r)
{
    if (reader.recordsRead() != 0)
        r.fail("trace-file restore requires a freshly-opened "
               "replay stream");
    restoreBase(r);
    std::uint64_t skip = r.u64();
    if (skip != generatedRecords())
        r.fail(csprintf("trace-file position %llu disagrees with "
                        "the %llu records the stream generated "
                        "(corrupt payload)",
                        (unsigned long long)skip,
                        (unsigned long long)generatedRecords()));
    // The file content is immutable, so resuming is repositioning
    // past the already-consumed prefix — O(1) via the block seek
    // index.
    if (skip > reader.header().recordCount)
        r.fail(csprintf("%s holds only %llu records but the "
                        "checkpoint consumed %llu — the checkpoint "
                        "was saved against a different trace file",
                        reader.path().c_str(),
                        (unsigned long long)
                            reader.header().recordCount,
                        (unsigned long long)skip));
    reader.skipTo(skip);
    expectedPc = invalidAddr;
}

} // namespace smt
