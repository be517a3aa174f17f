/**
 * @file
 * Tests for the memory hierarchy: cache geometry, LRU, banking, MSHR
 * merging, multi-level latencies and TLBs.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "sim/checkpoint.hh"
#include "util/random.hh"

namespace smt
{
namespace
{

CacheParams
smallCache(const char *name, unsigned size, unsigned ways,
           Cycle hit_lat)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = size;
    p.ways = ways;
    p.lineBytes = 64;
    p.banks = 8;
    p.hitLatency = hit_lat;
    p.mshrs = 8;
    return p;
}

TEST(CacheTest, HitAfterMissSettles)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    Cycle lat = c.access(0x1000, false, 0);
    EXPECT_EQ(lat, 101u); // 1 (hit path) + 100 memory
    // After the fill completes, it hits.
    EXPECT_EQ(c.access(0x1000, false, 200), 1u);
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, MshrMergeWhileInFlight)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    c.access(0x1000, false, 0); // ready at 101
    Cycle lat = c.access(0x1008, false, 50); // same line, in flight
    EXPECT_EQ(lat, 51u + 1u); // remaining 51 + hit latency
    EXPECT_EQ(c.stats().mshrMerges, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, LruWithinSet)
{
    // 2 ways, 32 sets: addresses 32 lines apart share a set.
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    Addr set_stride = 32 * 64;
    c.access(0x0000, false, 0);
    c.access(set_stride, false, 200);
    c.access(0x0000, false, 400);          // touch: set_stride is LRU
    c.access(2 * set_stride, false, 600);  // evicts set_stride
    EXPECT_EQ(c.access(0x0000, false, 800), 1u);
    EXPECT_GT(c.access(set_stride, false, 1000), 1u); // miss again
}

TEST(CacheTest, BankMapping)
{
    Cache c(smallCache("L", 32 * 1024, 2, 1), nullptr, 100);
    EXPECT_EQ(c.bankOf(0x0000), 0u);
    EXPECT_EQ(c.bankOf(0x0040), 1u);
    EXPECT_EQ(c.bankOf(0x01c0), 7u);
    EXPECT_EQ(c.bankOf(0x0200), 0u); // wraps at 8 banks
}

TEST(CacheTest, WritesCountedAndAllocate)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    c.access(0x2000, true, 0);
    EXPECT_EQ(c.stats().writeAccesses, 1u);
    EXPECT_EQ(c.access(0x2000, false, 200), 1u); // write-allocated
}

TEST(CacheTest, ResetClearsState)
{
    Cache c(smallCache("L", 4096, 2, 1), nullptr, 100);
    c.access(0x1000, false, 0);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_GT(c.access(0x1000, false, 0), 1u); // cold again
}

TEST(HierarchyTest, LatenciesCompose)
{
    MemoryHierarchy mem{MemoryParams{}};
    // Cold data access: DTLB walk + L1 miss + L2 miss + memory.
    Cycle first = mem.dcacheAccess(0, 0x40000000, false, 0);
    EXPECT_GT(first, 100u);
    // Warm hit: L1 latency + load-to-use.
    Cycle warm = mem.dcacheAccess(0, 0x40000000, false, 10'000);
    EXPECT_LE(warm, 4u);
}

TEST(HierarchyTest, L2SharedBetweenIAndD)
{
    MemoryHierarchy mem{MemoryParams{}};
    mem.icacheAccess(0, 0x40000000, 0); // fills L2 line
    std::uint64_t l2_misses = mem.l2().stats().misses;
    // Same line via the D side after L1I warmed L2: L2 should hit.
    mem.dcacheAccess(0, 0x40000000, false, 10'000);
    EXPECT_EQ(mem.l2().stats().misses, l2_misses);
}

TEST(HierarchyTest, IcacheReadyProbe)
{
    MemoryHierarchy mem{MemoryParams{}};
    EXPECT_FALSE(mem.icacheReady(0x400000));
    mem.icacheAccess(0, 0x400000, 0);
    EXPECT_TRUE(mem.icacheReady(0x400000));
}

TEST(TlbTest, HitAfterWalk)
{
    Tlb tlb("T", 4, 8192, 30);
    EXPECT_EQ(tlb.access(0, 0x10000), 30u);
    EXPECT_EQ(tlb.access(0, 0x10100), 0u); // same page
    EXPECT_EQ(tlb.access(0, 0x12000), 30u); // next page
}

TEST(TlbTest, PerThreadTagging)
{
    Tlb tlb("T", 8, 8192, 30);
    tlb.access(0, 0x10000);
    EXPECT_FALSE(tlb.wouldHit(1, 0x10000));
    EXPECT_TRUE(tlb.wouldHit(0, 0x10000));
    EXPECT_EQ(tlb.access(1, 0x10000), 30u);
}

TEST(TlbTest, LruReplacement)
{
    Tlb tlb("T", 2, 8192, 30);
    tlb.access(0, 0x00000);
    tlb.access(0, 0x02000);
    tlb.access(0, 0x00000); // touch; page 0x02000 is LRU
    tlb.access(0, 0x04000); // evicts 0x02000
    EXPECT_TRUE(tlb.wouldHit(0, 0x00000));
    EXPECT_FALSE(tlb.wouldHit(0, 0x02000));
}

TEST(TlbTest, PageSizeMustBeAPowerOfTwo)
{
    EXPECT_EXIT(Tlb("itlb", 48, 0, 30), ::testing::ExitedWithCode(1),
                "itlb.*power of two");
    EXPECT_EXIT(Tlb("dtlb", 128, 6000, 30),
                ::testing::ExitedWithCode(1), "dtlb.*power of two");
    EXPECT_EXIT(Tlb("dtlb", 0, 8192, 30), ::testing::ExitedWithCode(1),
                "dtlb.*at least one entry");
}

/**
 * The linear-scan TLB the indexed one replaced: a hit is the first
 * matching entry in scan order; a miss fills the last invalid entry,
 * else the first least-recently-used one.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(unsigned entries, unsigned page_bytes)
        : pageBytes(page_bytes), entries(entries)
    {
    }

    bool
    access(ThreadID tid, Addr vaddr)
    {
        ++accesses;
        std::uint64_t vpn = vaddr / pageBytes;
        Entry *victim = &entries[0];
        for (auto &e : entries) {
            if (e.valid && e.tid == tid && e.vpn == vpn) {
                e.lru = ++lruClock;
                return true;
            }
            if (!e.valid)
                victim = &e;
            else if (victim->valid && e.lru < victim->lru)
                victim = &e;
        }
        ++misses;
        *victim = Entry{true, tid, vpn, ++lruClock};
        return false;
    }

    /** Tlb::save's layout: entry placement must match too. */
    void
    save(CheckpointWriter &w) const
    {
        w.u32(static_cast<std::uint32_t>(entries.size()));
        w.u64(lruClock);
        for (const Entry &e : entries) {
            w.b(e.valid);
            w.i16(e.tid);
            w.u64(e.vpn);
            w.u64(e.lru);
        }
        w.u64(accesses);
        w.u64(misses);
    }

    bool
    wouldHit(ThreadID tid, Addr vaddr) const
    {
        std::uint64_t vpn = vaddr / pageBytes;
        for (const auto &e : entries)
            if (e.valid && e.tid == tid && e.vpn == vpn)
                return true;
        return false;
    }

  private:
    struct Entry
    {
        bool valid = false;
        ThreadID tid = invalidThread;
        std::uint64_t vpn = 0;
        std::uint64_t lru = 0;
    };

    unsigned pageBytes;
    std::uint64_t lruClock = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::vector<Entry> entries;
};

/** One object's checkpoint section as bytes. */
template <typename T>
std::string
savedBytes(const T &obj)
{
    CheckpointWriter w("<tlb-test>", "k");
    w.begin("tlb");
    obj.save(w);
    w.end();
    return w.finish();
}

TEST(TlbTest, IndexedTlbMatchesLinearScanReference)
{
    constexpr unsigned page = 8192;
    constexpr Cycle penalty = 30;
    for (unsigned entries : {48u, 128u}) {
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(testing::Message() << entries << " entries, "
                                            << threads << " threads");
            Tlb tlb("T", entries, page, penalty);
            ReferenceTlb ref(entries, page);
            Rng rng(entries * 131 + threads);
            // A hot set that fits beside a wider cold range: hits,
            // capacity misses and LRU victims all occur.
            const std::uint64_t hot = entries / (2 * threads) + 4;
            const std::uint64_t cold = 4 * entries;
            constexpr int accesses = 200'000;
            std::uint64_t hits = 0;
            for (int i = 0; i < accesses; ++i) {
                if (i == accesses / 2) {
                    // Resume from a checkpoint mid-stream.
                    const std::string bytes = savedBytes(tlb);
                    CheckpointReader r(bytes, "<tlb-test>");
                    Tlb restored("T", entries, page, penalty);
                    r.begin("tlb");
                    restored.restore(r);
                    r.end();
                    r.finish();
                    tlb = restored;
                }
                auto tid = static_cast<ThreadID>(rng.below(threads));
                std::uint64_t vpn = rng.below(4) != 0 ? rng.below(hot)
                                                      : rng.below(cold);
                Addr vaddr = vpn * page + rng.below(page);
                ASSERT_EQ(tlb.wouldHit(tid, vaddr),
                          ref.wouldHit(tid, vaddr))
                    << "access " << i;
                bool hit = ref.access(tid, vaddr);
                ASSERT_EQ(tlb.access(tid, vaddr), hit ? 0 : penalty)
                    << "access " << i;
                hits += hit;
            }
            EXPECT_GT(hits, accesses / 4u);
            EXPECT_LT(hits, accesses - accesses / 20u);
            EXPECT_EQ(savedBytes(tlb), savedBytes(ref));
        }
    }
}

TEST(TlbTest, RestoreRejectsAPageMappedTwice)
{
    std::string bytes;
    {
        CheckpointWriter w("<tlb-test>", "k");
        w.begin("tlb");
        w.u32(2);  // entries
        w.u64(2);  // LRU clock
        for (std::uint64_t lru : {1, 2}) {
            w.b(true);
            w.i16(0);
            w.u64(0x42); // the same (thread, page) in both entries
            w.u64(lru);
        }
        w.u64(2); // accesses
        w.u64(2); // misses
        w.end();
        bytes = w.finish();
    }
    CheckpointReader r(bytes, "<tlb-test>");
    Tlb tlb("dtlb", 2, 8192, 30);
    r.begin("tlb");
    try {
        tlb.restore(r);
        FAIL() << "duplicate TLB entries restored";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("dtlb maps (thread 0, "
                                             "page 0x42) twice"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CacheTest, PerThreadAttributionSumsToTotals)
{
    // Shared-cache interference accounting: every access and miss is
    // attributed to exactly one thread, at every level it reaches.
    MemoryHierarchy mem{MemoryParams{}};
    for (int i = 0; i < 32; ++i) {
        ThreadID tid = static_cast<ThreadID>(i % 4);
        mem.dcacheAccess(tid, 0x1000 + 0x40 * i, (i % 5) == 0,
                         static_cast<Cycle>(i) * 200);
    }
    for (const Cache *c : {&mem.l1d(), &mem.l2()}) {
        const CacheStats &s = c->stats();
        std::uint64_t acc = 0, miss = 0;
        for (unsigned t = 0; t < maxThreads; ++t) {
            acc += s.threadAccesses[t];
            miss += s.threadMisses[t];
        }
        EXPECT_EQ(acc, s.accesses) << c->params().name;
        EXPECT_EQ(miss, s.misses) << c->params().name;
    }
    // Four threads issued accesses; the rest attributed nothing.
    for (unsigned t = 4; t < maxThreads; ++t)
        EXPECT_EQ(mem.l1d().stats().threadAccesses[t], 0u);
    EXPECT_GT(mem.l1d().stats().threadAccesses[0], 0u);
    EXPECT_GT(mem.l2().stats().threadMisses[1], 0u);
}

TEST(TlbTest, StatsTrackMissRate)
{
    Tlb tlb("T", 16, 8192, 30);
    for (int i = 0; i < 8; ++i)
        tlb.access(0, static_cast<Addr>(i) * 8192);
    for (int i = 0; i < 8; ++i)
        tlb.access(0, static_cast<Addr>(i) * 8192);
    EXPECT_EQ(tlb.stats().accesses, 16u);
    EXPECT_EQ(tlb.stats().misses, 8u);
    EXPECT_DOUBLE_EQ(tlb.stats().missRate(), 0.5);
}

} // namespace
} // namespace smt
