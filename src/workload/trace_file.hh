/**
 * @file
 * Versioned on-disk trace format and the file-backed trace source.
 *
 * A trace file holds one thread's correct-path dynamic instruction
 * sequence plus the header needed to rebuild the static program it
 * executes over (benchmark profile name, build seed, code/data bases).
 * There is one encoding (format version 2): a little-endian header,
 * the packed 20-byte records grouped into framed blocks — raw or
 * deflate-compressed — and a trailing per-block seek index, so replay
 * streams one block at a time in bounded memory and checkpoint
 * restore seeks instead of re-reading the prefix. It is the format
 * `smtsim --record` and tracegen write and FileTraceStream replays.
 *
 * Every malformed input is a TraceFileError with an actionable
 * message, never UB: bad magic, version skew, truncated headers and
 * a block index that disagrees with the record count or the file
 * size are all detected up front.
 */

#ifndef SMTFETCH_WORKLOAD_TRACE_FILE_HH
#define SMTFETCH_WORKLOAD_TRACE_FILE_HH

#include <cstdint>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/opcode.hh"
#include "util/types.hh"
#include "workload/trace.hh"

namespace smt
{

/** User-facing error in a trace file: I/O failure or malformed
 *  content. The message names the file and what to do about it. */
class TraceFileError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The one binary revision this build reads and writes: records are
 * grouped into fixed-size framed blocks (optionally compressed) and
 * a per-block seek index trails the file, so readers decode one
 * block at a time in bounded memory and seek in O(1).
 */
constexpr std::uint16_t traceFormatVersion = 2;

/** Binary file magic ("SMTTRC", no terminator). */
constexpr char traceMagic[6] = {'S', 'M', 'T', 'T', 'R', 'C'};

/** Seek-index magic ("SMTIDX", no terminator). */
constexpr char traceIndexMagic[6] = {'S', 'M', 'T', 'I', 'D', 'X'};

/** Size in bytes of one packed binary record. */
constexpr std::size_t traceRecordBytes = 20;

/** @name Record-block codecs (one byte in the header). */
/// @{
constexpr std::uint8_t traceCodecRaw = 0;     //!< stored verbatim
constexpr std::uint8_t traceCodecDeflate = 1; //!< zlib deflate
/// @}

/** Records per full block (80 KB of raw payload). */
constexpr std::uint32_t traceBlockRecordsDefault = 4096;

/**
 * Trace file header: everything needed to rebuild the benchmark image
 * the records were captured against (buildImage is deterministic in
 * profile, bases and seed, so replay reconstructs the identical
 * program and wrong-path dictionary).
 */
struct TraceFileHeader
{
    std::string benchmark;       //!< profile name ("gzip", ...)
    std::uint16_t version = traceFormatVersion;
    std::uint64_t seed = 0;      //!< buildImage seed salt
    Addr codeBase = 0;           //!< program base address
    Addr dataBase = 0;           //!< data region base address
    std::uint64_t recordCount = 0;

    /** @name Block layout. */
    /// @{
    std::uint8_t codec = traceCodecRaw;
    std::uint32_t blockRecords = 0; //!< records per full block
    std::uint64_t blockCount = 0;
    std::uint64_t indexOffset = 0;  //!< file offset of the seek index
    /// @}
};

/**
 * One decoded trace record, independent of any program image. The
 * file packs pc/nextPc as 32-bit word offsets from
 * codeBase, one info byte (op kind, CTI direction, mem-class flag),
 * the register-dependency depth and the memory effective address.
 */
struct PackedTraceRecord
{
    Addr pc = invalidAddr;
    Addr nextPc = invalidAddr;
    Addr memAddr = invalidAddr;  //!< invalidAddr when not a mem op
    OpClass kind = OpClass::IntAlu;
    bool taken = false;
    std::uint8_t depDepth = 0;   //!< register source-operand count
};

/** Knobs for TraceWriter's encoding: codec, block size. */
struct TraceWriteOptions
{
    /** Block codec: traceCodecRaw or traceCodecDeflate. */
    std::uint8_t codec = traceCodecDeflate;

    /** Records per full block (the steady-state buffer size). */
    std::uint32_t blockRecords = traceBlockRecordsDefault;
};

/**
 * Streaming trace capture. The header's recordCount and block index
 * are patched on close(); destruction closes. Capture buffers at most
 * one record block, so its memory stays O(block) regardless of trace
 * length.
 */
class TraceWriter
{
  public:
    TraceWriter(const std::string &path, const TraceFileHeader &header,
                const TraceWriteOptions &options = TraceWriteOptions{});
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append a live record (packs pc/kind/deps from rec.si). */
    void append(const TraceRecord &rec);

    /** Append an already-packed record (tests, transcoding). */
    void append(const PackedTraceRecord &rec);

    /** Finish the file; idempotent. TraceFileError on I/O failure. */
    void close();

    std::uint64_t recordsWritten() const { return count; }
    const std::string &path() const { return filePath; }

  private:
    [[noreturn]] void fail(const std::string &what) const;

    /** Frame (and compress) the buffered block to disk. */
    void flushBlock();

    std::string filePath;
    TraceFileHeader hdr;
    std::ofstream os;
    std::uint64_t count = 0;
    bool closed = false;

    /** One buffered record block (encoded, uncompressed). */
    std::string blockBuf;
    std::uint32_t blockBuffered = 0; //!< records in blockBuf

    /** Seek index accumulated as blocks flush. */
    struct IndexEntry
    {
        std::uint64_t fileOffset;
        std::uint64_t firstRecord;
    };
    std::vector<IndexEntry> index;
};

/**
 * Sequential trace decoder. The constructor validates the whole
 * header — including that the block index is self-consistent — so
 * corruption surfaces before any simulation starts. Payloads decode
 * one block at a time: memory stays
 * O(block) however long the trace is. Every malformed-input error
 * names the file and where the offending data sits: its byte offset,
 * or, inside a deflated block, the block and the record's index in
 * it.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    const TraceFileHeader &header() const { return hdr; }

    /**
     * Decode the next record. @return false at the clean end of the
     * trace; throws TraceFileError on any corruption.
     */
    bool next(PackedTraceRecord &out);

    /**
     * Reposition so the next next() call delivers record
     * `record_index` (== recordCount positions at end-of-trace).
     * O(1) through the seek index; a TraceFileError past the end of
     * the trace.
     */
    void skipTo(std::uint64_t record_index);

    std::uint64_t recordsRead() const { return count; }
    const std::string &path() const { return filePath; }

  private:
    [[noreturn]] void fail(const std::string &what) const;

    void readBinaryHeader();
    void readExtension(std::uint64_t file_size);
    void readIndex();
    void loadBlock(std::uint64_t block);

    /** Decode the record at blockPos of the loaded block. */
    void decodeRecord(PackedTraceRecord &out);

    /** Fail naming where the record at blockPos sits. */
    [[noreturn]] void recordFail(const std::string &what);

    std::string filePath;
    TraceFileHeader hdr;
    std::ifstream is;
    std::uint64_t count = 0;

    /** File offset for error messages (next unread structure). */
    std::uint64_t errOffset = 0;

    /** End of the header (fixed part plus block extension). */
    std::uint64_t headerBytes = 0;

    /** @name Block streaming state. */
    /// @{
    struct IndexEntry
    {
        std::uint64_t fileOffset;
        std::uint64_t firstRecord;
    };
    std::vector<IndexEntry> index;
    std::string blockData;           //!< current decoded block
    std::string blockScratch;        //!< compressed frame scratch
    std::uint64_t curBlock = 0;      //!< index of loaded block + 1
    std::uint64_t blockFirst = 0;    //!< first record of the block
    std::uint32_t blockLen = 0;      //!< records in the block
    std::uint32_t blockPos = 0;      //!< next record within it
    /// @}
};

/**
 * The validated header of a trace file (workload construction): opens
 * a TraceReader, so the block index is checked too, before any
 * simulation runs. TraceFileError, naming the file, when it is
 * unreadable or malformed or when its benchmark is not one of
 * allProfiles().
 */
TraceFileHeader readTraceHeader(const std::string &path);

/**
 * Replays a recorded trace file as a TraceSource. The image must be
 * the one named by the file's header (same profile, bases and seed) —
 * the constructor cross-checks and every delivered record is validated
 * against the static program, so a trace/program mismatch is an error,
 * not silent divergence.
 */
class FileTraceStream : public TraceSource
{
  public:
    /** @param image Must outlive the stream. */
    FileTraceStream(const BenchmarkImage &image,
                    const std::string &path);

    const TraceFileHeader &header() const { return reader.header(); }

    /**
     * @name Checkpoint serialization: the base replay state plus the
     * file position, re-established on restore by skipping the
     * already-generated prefix of the (deterministic) trace file.
     */
    /// @{
    void save(CheckpointWriter &w) const override;
    void restore(CheckpointReader &r) override;
    /// @}

  protected:
    TraceRecord generate() override;

    /**
     * Never reads past the trace's recordCount, and stops short of a
     * record that fails to decode or validate: its error is raised by
     * the next batch, when that record is needed, so every error
     * surfaces at the record index it would without batching.
     */
    std::size_t generateBatch(TraceRecord *out, std::size_t n) override;

  private:
    TraceReader reader;

    /** Error of the record a batch stopped short of. */
    std::exception_ptr deferredError;
};

} // namespace smt

#endif // SMTFETCH_WORKLOAD_TRACE_FILE_HH
