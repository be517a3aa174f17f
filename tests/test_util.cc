/**
 * @file
 * Unit tests for the utility substrate: RNG determinism, saturating
 * counters, ring buffers, histograms, bit helpers, the table
 * printer and SHA-256.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "util/bitfield.hh"
#include "util/histogram.hh"
#include "util/random.hh"
#include "util/ring_buffer.hh"
#include "util/sat_counter.hh"
#include "util/sha256.hh"
#include "util/table.hh"

namespace smt
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, StringSeedDeterministic)
{
    Rng a("gzip", 7), b("gzip", 7), c("twolf", 7);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(4);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(6);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, PositiveGeometricMeanRoughlyMatches)
{
    Rng r(7);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += r.positiveGeometric(8.0, 1000);
    EXPECT_NEAR(sum / n, 8.0, 0.5);
}

TEST(Rng, PositiveGeometricRespectsCap)
{
    Rng r(8);
    for (int i = 0; i < 10000; ++i) {
        unsigned v = r.positiveGeometric(20.0, 32);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 32u);
    }
}

TEST(SatCounter, SaturatesAtBounds)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.predictTaken());
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.raw(), 3);
    EXPECT_TRUE(c.predictTaken());
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.raw(), 0);
}

TEST(SatCounter, MidpointPredictsNotTaken)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.predictTaken()); // 1 of 3: weakly not-taken
    c.increment();
    EXPECT_TRUE(c.predictTaken()); // 2 of 3: weakly taken
}

TEST(SatCounter, UpdateDirection)
{
    SatCounter c(3, 3);
    c.update(true);
    EXPECT_EQ(c.raw(), 4);
    c.update(false);
    c.update(false);
    EXPECT_EQ(c.raw(), 2);
}

TEST(SatCounter, IsSaturated)
{
    SatCounter c(1, 0);
    EXPECT_TRUE(c.isSaturated());
    c.increment();
    EXPECT_TRUE(c.isSaturated());
    SatCounter d(2, 1);
    EXPECT_FALSE(d.isSaturated());
}

TEST(RingBuffer, FifoOrderAcrossWraparound)
{
    RingBuffer<int> rb(3); // slot array rounds up to 4
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 3u);
    int next = 0, expect = 0;
    for (int round = 0; round < 10; ++round) {
        while (!rb.full())
            rb.push_back(next++);
        EXPECT_EQ(rb.size(), 3u);
        EXPECT_EQ(rb.front(), expect);
        EXPECT_EQ(rb.back(), next - 1);
        rb.pop_front();
        ++expect;
    }
    EXPECT_EQ(rb[0], expect);
    EXPECT_EQ(rb[1], expect + 1);
}

TEST(RingBuffer, PopBackAndClear)
{
    RingBuffer<int> rb(4);
    for (int i = 0; i < 4; ++i)
        rb.push_back(i);
    rb.pop_back();
    EXPECT_EQ(rb.back(), 2);
    EXPECT_EQ(rb.size(), 3u);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(7); // usable after clear
    EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, EmplaceBackResetsReusedSlots)
{
    struct Payload
    {
        int v = -1;
    };
    RingBuffer<Payload> rb(2);
    rb.emplace_back().v = 42;
    rb.pop_front();
    rb.emplace_back();
    rb.emplace_back(); // wraps onto the old slot
    EXPECT_EQ(rb[0].v, -1);
    EXPECT_EQ(rb[1].v, -1);
}

TEST(Histogram, MeanAndFractions)
{
    Histogram h(16);
    h.sample(4);
    h.sample(8);
    h.sample(8);
    h.sample(0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(8), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(4), 0.75);
    EXPECT_DOUBLE_EQ(h.fractionAbove(4), 0.5);
}

TEST(Histogram, ClampsOverflowToTopBucket)
{
    Histogram h(8);
    h.sample(100);
    EXPECT_EQ(h.at(8), 1u);
    EXPECT_EQ(h.sum(), 100u); // mean uses true values
    EXPECT_EQ(h.overflows(), 1u);
}

TEST(Histogram, OverflowCountSeparatesClampedFromTrueMax)
{
    Histogram h(8);
    h.sample(8);  // true top-bucket sample
    h.sample(9);  // clamped
    h.sample(20); // clamped
    EXPECT_EQ(h.at(8), 3u); // bins alone cannot tell them apart...
    EXPECT_EQ(h.overflows(), 2u); // ...the overflow count can
    EXPECT_EQ(h.count(), 3u);
    // The mean stays exact (raw values, not the clamped bins), so it
    // may exceed the top bucket when overflows are present.
    EXPECT_DOUBLE_EQ(h.mean(), (8.0 + 9.0 + 20.0) / 3.0);
    EXPECT_GT(h.mean(), 8.0);
}

TEST(Histogram, InRangeSamplesDoNotCountAsOverflow)
{
    Histogram h(4);
    for (unsigned v = 0; v <= 4; ++v)
        h.sample(v);
    EXPECT_EQ(h.overflows(), 0u);
    EXPECT_EQ(h.at(4), 1u);
}

TEST(Histogram, ResetClears)
{
    Histogram h(4);
    h.sample(2);
    h.sample(99);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflows(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Bitfield, MaskAndBits)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(4), 0xfu);
    EXPECT_EQ(mask(64), ~0ULL);
    EXPECT_EQ(bits(0xabcd, 4, 8), 0xbcu);
}

TEST(Bitfield, FoldXor)
{
    EXPECT_EQ(foldXor(0xff00ff, 8), 0xffu ^ 0x00u ^ 0xffu);
    EXPECT_EQ(foldXor(0x12345678, 16), (0x1234u ^ 0x5678u));
    EXPECT_EQ(foldXor(12345, 0), 0u);
}

TEST(Bitfield, Mix64Distinct)
{
    EXPECT_NE(mix64(1), mix64(2));
    EXPECT_EQ(mix64(77), mix64(77));
}

TEST(TextTable, RendersAlignedRows)
{
    TextTable t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream os;
    t.print(os, "title");
    std::string out = os.str();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(TextTable, NumFormat)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
}

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
    const std::string path = ::testing::TempDir() + "digest.bin";
    std::ofstream(path, std::ios::binary) << two_blocks;
    EXPECT_EQ(sha256File(path),
              sha256Hex(two_blocks.data(), two_blocks.size()));
}

} // namespace
} // namespace smt
