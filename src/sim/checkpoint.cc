#include "sim/checkpoint.hh"

#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace smt
{

namespace
{

/** Cap on serialized string lengths (names, config keys). */
constexpr std::uint32_t maxStringBytes = 1u << 20;

/** Offset of the backpatched component count (magic, version,
 *  reserved precede it). */
constexpr std::size_t countOffset = sizeof(checkpointMagic) + 2 + 2;

/** Checksum plus trailer: the bytes after the last section. */
constexpr std::size_t sealBytes = 8 + sizeof(checkpointTrailer);

void
putLe(unsigned char *out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe(const unsigned char *in, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

} // namespace

std::uint64_t
checkpointChecksum(std::string_view bytes)
{
    constexpr std::uint64_t k1 = 0x87c37b91114253d5ULL;
    constexpr std::uint64_t k2 = 0x4cf5ad432745937fULL;
    const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
    const std::size_t n = bytes.size();
    // Each step is a bijection of h for a fixed word and of the word
    // for a fixed h, so one changed word always changes the result.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        h = std::rotl(h ^ (getLe(p + i, 8) * k1), 29) * k2;
    if (i < n)
        h = std::rotl(h ^ (getLe(p + i, unsigned(n - i)) * k1), 29) * k2;
    // MurmurHash3's fmix64 finalizer spreads the last words' bits.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

// ---------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------

CheckpointWriter::CheckpointWriter(std::string context,
                                   const std::string &config_key)
    : context(std::move(context))
{
    raw(checkpointMagic, sizeof(checkpointMagic));
    u16(checkpointFormatVersion);
    u16(0); // reserved
    u32(0); // component count, backpatched by finish()
    str(config_key);
}

void
CheckpointWriter::fail(const std::string &what) const
{
    throw CheckpointError(
        csprintf("%s: %s", context.c_str(), what.c_str()));
}

void
CheckpointWriter::raw(const void *data, std::size_t n)
{
    if (finished)
        fail("write after finish()");
    bytes.append(static_cast<const char *>(data), n);
}

void
CheckpointWriter::begin(const std::string &component)
{
    if (inSection)
        fail(csprintf("begin(\"%s\") while section \"%s\" is open",
                      component.c_str(), sectionName.c_str()));
    str(component);
    sectionName = component;
    sectionSizePos = bytes.size();
    u64(0); // payload size, backpatched by end()
    inSection = true;
}

void
CheckpointWriter::end()
{
    if (!inSection)
        fail("end() with no open section");
    putLe(reinterpret_cast<unsigned char *>(&bytes[sectionSizePos]),
          bytes.size() - sectionSizePos - 8, 8);
    inSection = false;
    ++components;
}

std::string
CheckpointWriter::finish()
{
    if (inSection)
        fail("finish() with an open section");
    if (finished)
        fail("finish() called twice");
    putLe(reinterpret_cast<unsigned char *>(&bytes[countOffset]),
          components, 4);
    u64(checkpointChecksum(bytes));
    raw(checkpointTrailer, sizeof(checkpointTrailer));
    finished = true;
    return std::move(bytes);
}

void
CheckpointWriter::u8(std::uint8_t v)
{
    raw(&v, 1);
}

void
CheckpointWriter::u16(std::uint16_t v)
{
    unsigned char buf[2];
    putLe(buf, v, 2);
    raw(buf, 2);
}

void
CheckpointWriter::u32(std::uint32_t v)
{
    unsigned char buf[4];
    putLe(buf, v, 4);
    raw(buf, 4);
}

void
CheckpointWriter::u64(std::uint64_t v)
{
    unsigned char buf[8];
    putLe(buf, v, 8);
    raw(buf, 8);
}

void
CheckpointWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
CheckpointWriter::str(const std::string &s)
{
    if (s.size() > maxStringBytes)
        fail(csprintf("string of %zu bytes exceeds the %u-byte "
                      "format limit",
                      s.size(), maxStringBytes));
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty())
        raw(s.data(), s.size());
}

// ---------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------

CheckpointReader::CheckpointReader(std::string_view bytes,
                                   std::string context)
    : bytes(bytes), context(std::move(context)), limit(bytes.size())
{
    if (bytes.size() < sizeof(checkpointMagic))
        fail("too short for the checkpoint magic (is this a "
             "checkpoint?)");
    if (std::memcmp(bytes.data(), checkpointMagic,
                    sizeof(checkpointMagic)) != 0)
        fail("bad magic (expected \"SMTCKPT\"); this is not a "
             "checkpoint file");
    pos = sizeof(checkpointMagic);

    std::uint16_t version = u16();
    if (version != checkpointFormatVersion)
        fail(csprintf("format version %u, but this build reads "
                      "version %u — re-save the checkpoint with this "
                      "build",
                      version, checkpointFormatVersion));

    // Integrity before content: no section is parsed from bytes the
    // checksum does not vouch for.
    if (bytes.size() < pos + sealBytes ||
        std::memcmp(bytes.data() + bytes.size() -
                        sizeof(checkpointTrailer),
                    checkpointTrailer, sizeof(checkpointTrailer)) != 0)
        fail("missing end trailer (truncated checkpoint, or trailing "
             "bytes after the trailer)");
    limit = bytes.size() - sealBytes;
    const std::uint64_t stored = getLe(
        reinterpret_cast<const unsigned char *>(bytes.data() + limit),
        8);
    if (checkpointChecksum(bytes.substr(0, limit)) != stored)
        fail("checksum mismatch: the payload is corrupt (damaged or "
             "partially overwritten); delete it and the next run "
             "re-creates it");

    std::uint16_t reserved = u16();
    if (reserved != 0)
        fail(csprintf("reserved header field is %u, expected 0 "
                      "(corrupt header)",
                      reserved));
    declaredCount = u32();
    if (declaredCount == 0)
        fail("checkpoint declares zero components (file was not "
             "finished?)");
    key = str();
}

void
CheckpointReader::fail(const std::string &what) const
{
    std::string where = context + ": checkpoint";
    if (inSection)
        where += csprintf(" (in component \"%s\")",
                          sectionName.c_str());
    throw CheckpointError(
        csprintf("%s: %s", where.c_str(), what.c_str()));
}

void
CheckpointReader::raw(void *data, std::size_t n)
{
    if (inSection) {
        if (n > sectionRemaining)
            fail(csprintf("component payload over-read (%zu bytes "
                          "wanted, %llu left); the declared section "
                          "size disagrees with its content",
                          n,
                          (unsigned long long)sectionRemaining));
        sectionRemaining -= n;
    }
    if (n > limit - pos)
        fail("unexpected end of data (truncated checkpoint)");
    std::memcpy(data, bytes.data() + pos, n);
    pos += n;
}

void
CheckpointReader::begin(const std::string &component)
{
    if (inSection)
        fail(csprintf("begin(\"%s\") while another section is open",
                      component.c_str()));
    if (consumedCount >= declaredCount)
        fail(csprintf("component \"%s\" requested but the file "
                      "declares only %u components (component-count "
                      "mismatch)",
                      component.c_str(), declaredCount));
    std::string name = str();
    if (name != component)
        fail(csprintf("component order mismatch: expected \"%s\", "
                      "found \"%s\" — the checkpoint was written by "
                      "an incompatible build",
                      component.c_str(), name.c_str()));
    sectionName = name;
    sectionRemaining = u64();
    if (sectionRemaining > limit - pos)
        fail(csprintf("section \"%s\" declares %llu payload bytes "
                      "but only %zu remain (corrupt section size)",
                      name.c_str(),
                      (unsigned long long)sectionRemaining,
                      limit - pos));
    inSection = true;
}

void
CheckpointReader::end()
{
    if (!inSection)
        fail("end() with no open section");
    if (sectionRemaining != 0)
        fail(csprintf("%llu unread payload bytes at section end; "
                      "the declared section size disagrees with its "
                      "content",
                      (unsigned long long)sectionRemaining));
    inSection = false;
    sectionName.clear();
    ++consumedCount;
}

void
CheckpointReader::finish()
{
    if (inSection)
        fail("finish() with an open section");
    if (consumedCount != declaredCount)
        fail(csprintf("consumed %u of the %u declared components "
                      "(component-count mismatch)",
                      consumedCount, declaredCount));
    if (pos != limit)
        fail(csprintf("%zu unread bytes after the last component "
                      "(corrupt section layout)",
                      limit - pos));
}

std::uint8_t
CheckpointReader::u8()
{
    std::uint8_t v;
    raw(&v, 1);
    return v;
}

std::uint16_t
CheckpointReader::u16()
{
    unsigned char buf[2];
    raw(buf, 2);
    return static_cast<std::uint16_t>(getLe(buf, 2));
}

std::uint32_t
CheckpointReader::u32()
{
    unsigned char buf[4];
    raw(buf, 4);
    return static_cast<std::uint32_t>(getLe(buf, 4));
}

std::uint64_t
CheckpointReader::u64()
{
    unsigned char buf[8];
    raw(buf, 8);
    return getLe(buf, 8);
}

bool
CheckpointReader::b()
{
    std::uint8_t v = u8();
    if (v > 1)
        fail(csprintf("boolean byte holds %u (corrupt payload)", v));
    return v != 0;
}

double
CheckpointReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
CheckpointReader::str()
{
    std::uint32_t n = u32();
    if (n > maxStringBytes)
        fail(csprintf("string length %u exceeds the %u-byte format "
                      "limit (corrupt length field)",
                      n, maxStringBytes));
    std::string s(n, '\0');
    if (n > 0)
        raw(s.data(), n);
    return s;
}

std::uint64_t
CheckpointReader::checkCount(std::uint64_t n, std::size_t elem_bytes,
                             const char *what)
{
    // Every serialized element consumes at least elem_bytes from the
    // open section, so a count the section cannot hold is corrupt.
    if (!inSection || n * elem_bytes > sectionRemaining)
        fail(csprintf("%s count %llu does not fit the remaining "
                      "section payload (corrupt count field)",
                      what, (unsigned long long)n));
    return n;
}

OpClass
checkpointReadOpClass(CheckpointReader &r)
{
    std::uint8_t v = r.u8();
    if (v >= numOpClasses)
        r.fail(csprintf("op-class byte holds %u, valid range is "
                        "[0, %u) (corrupt payload)",
                        v, numOpClasses));
    return static_cast<OpClass>(v);
}

} // namespace smt
