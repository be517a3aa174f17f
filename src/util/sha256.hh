/**
 * @file
 * Self-contained SHA-256 (FIPS 180-4): keys warmup snapshots to the
 * simulator binary and fingerprints perfbench inputs and results.
 * Streaming interface so large files hash in fixed memory; no
 * external dependencies.
 */

#ifndef SMTFETCH_UTIL_SHA256_HH
#define SMTFETCH_UTIL_SHA256_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace smt
{

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb `len` bytes; call any number of times before digest. */
    void update(const void *data, std::size_t len);

    /**
     * Finalize (first call) and return the digest as 64 lowercase hex
     * characters. Further update() calls are invalid.
     */
    std::string hexDigest();

  private:
    void processBlock(const unsigned char *block);

    std::uint32_t state[8];
    unsigned char buffer[64];
    std::size_t bufferLen = 0;
    std::uint64_t totalBytes = 0;
    bool finalized = false;
    unsigned char digest[32];
};

/** One-shot digest of an in-memory buffer. */
std::string sha256Hex(const void *data, std::size_t len);

/**
 * Digest of a file's contents, streamed in fixed-size chunks.
 * Throws std::runtime_error naming the path when it cannot be read.
 */
std::string sha256File(const std::string &path);

} // namespace smt

#endif // SMTFETCH_UTIL_SHA256_HH
