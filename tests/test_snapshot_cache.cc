/**
 * @file
 * WarmupSnapshotCache unit tests: LRU eviction under a byte budget
 * (with the eviction counter the sweep timing surfaces), the
 * persistent disk tier (write-through on fulfil, promotion on a
 * memory miss), and the single-flight warmup leases that make a
 * popular key's warmup run exactly once across concurrent callers.
 */

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/snapshot_cache.hh"

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

/** Lead the key and publish `bytes` as its snapshot. */
void
insert(WarmupSnapshotCache &cache, const std::string &key,
       std::string bytes, const std::string &disk_dir = "")
{
    auto got = cache.acquire(key, disk_dir);
    ASSERT_TRUE(got.leader) << key;
    cache.fulfil(key, std::move(bytes), disk_dir);
}

} // namespace

// ---------------------------------------------------------------------
// Memory tier: LRU order and the byte budget
// ---------------------------------------------------------------------

TEST(SnapshotCache, HitsMissesAndByteAccounting)
{
    WarmupSnapshotCache cache(1 << 20);
    insert(cache, "a", std::string(100, 'a'));
    insert(cache, "b", std::string(200, 'b'));

    auto hit = cache.acquire("a");
    ASSERT_TRUE(hit.snapshot);
    EXPECT_FALSE(hit.leader);
    EXPECT_FALSE(hit.diskHit);
    EXPECT_EQ(*hit.snapshot, std::string(100, 'a'));

    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.insertions, 2u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.bytes, 300u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.maxBytes, std::size_t(1) << 20);
}

TEST(SnapshotCache, LruEvictionPrefersTheColdestKey)
{
    // Budget fits three 100-byte snapshots. Touch "a" so "b" is the
    // LRU victim when "d" arrives.
    WarmupSnapshotCache cache(300);
    insert(cache, "a", std::string(100, 'a'));
    insert(cache, "b", std::string(100, 'b'));
    insert(cache, "c", std::string(100, 'c'));
    ASSERT_TRUE(cache.acquire("a").snapshot);

    insert(cache, "d", std::string(100, 'd'));
    auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 3u);
    EXPECT_EQ(s.bytes, 300u);

    // "b" was evicted; everything else is still resident.
    EXPECT_TRUE(cache.acquire("a").snapshot);
    EXPECT_TRUE(cache.acquire("c").snapshot);
    EXPECT_TRUE(cache.acquire("d").snapshot);
    auto evicted = cache.acquire("b");
    EXPECT_FALSE(evicted.snapshot);
    EXPECT_TRUE(evicted.leader);
    cache.abandon("b");
}

TEST(SnapshotCache, EvictionNeverInvalidatesAHandedOutSnapshot)
{
    WarmupSnapshotCache cache(100);
    insert(cache, "a", std::string(100, 'a'));
    auto held = cache.acquire("a");
    ASSERT_TRUE(held.snapshot);

    // Inserting "b" evicts "a", but the shared_ptr keeps the bytes.
    insert(cache, "b", std::string(100, 'b'));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(*held.snapshot, std::string(100, 'a'));
}

TEST(SnapshotCache, OversizeSnapshotIsServedButNotRetained)
{
    WarmupSnapshotCache cache(50);
    insert(cache, "big", std::string(1000, 'x'));
    auto s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    // Next acquire leads again rather than hitting.
    auto again = cache.acquire("big");
    EXPECT_TRUE(again.leader);
    cache.abandon("big");
}

// ---------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------

TEST(SnapshotCache, FulfilWritesThroughToTheDiskTier)
{
    std::string dir = freshDir("snap_wt");
    WarmupSnapshotCache cache;
    insert(cache, "key1", "snapshot-bytes", dir);

    std::string path = WarmupSnapshotCache::diskPathFor(dir, "key1");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_EQ(std::filesystem::file_size(path), 14u);
    // No temporary files left behind by write-then-rename.
    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(SnapshotCache, DiskMissPromotesIntoMemory)
{
    std::string dir = freshDir("snap_promote");
    {
        WarmupSnapshotCache writer;
        insert(writer, "key1", "persisted", dir);
    }

    // A fresh cache (new process, conceptually) finds the file.
    WarmupSnapshotCache cache;
    auto got = cache.acquire("key1", dir);
    ASSERT_TRUE(got.snapshot);
    EXPECT_TRUE(got.diskHit);
    EXPECT_FALSE(got.leader);
    EXPECT_EQ(*got.snapshot, "persisted");

    // The load was promoted: the next acquire is a memory hit.
    auto again = cache.acquire("key1", dir);
    ASSERT_TRUE(again.snapshot);
    EXPECT_FALSE(again.diskHit);

    auto s = cache.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 0u);
}

// ---------------------------------------------------------------------
// Single-flight leases
// ---------------------------------------------------------------------

TEST(SnapshotCache, ConcurrentAcquiresElectExactlyOneLeader)
{
    WarmupSnapshotCache cache;
    constexpr int threads = 8;
    std::atomic<int> leaders{0};
    std::atomic<int> sharers{0};

    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
        pool.emplace_back([&] {
            auto got = cache.acquire("hot");
            if (got.leader) {
                ++leaders;
                // Linger so the other threads pile onto the lease.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                cache.fulfil("hot", "warm-state");
            } else {
                ASSERT_TRUE(got.snapshot);
                EXPECT_EQ(*got.snapshot, "warm-state");
                ++sharers;
            }
        });
    }
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(leaders.load(), 1);
    EXPECT_EQ(sharers.load(), threads - 1);
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, std::uint64_t(threads - 1));
    EXPECT_EQ(s.insertions, 1u);
}

TEST(SnapshotCache, AbandonedLeaseElectsANewLeader)
{
    WarmupSnapshotCache cache;
    auto first = cache.acquire("flaky");
    ASSERT_TRUE(first.leader);

    std::thread waiter([&] {
        // Blocks on the first lease, then inherits it.
        auto got = cache.acquire("flaky");
        EXPECT_TRUE(got.leader);
        cache.fulfil("flaky", "second-try");
    });

    // Give the waiter time to block, then fail the first warmup.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.abandon("flaky");
    waiter.join();

    auto got = cache.acquire("flaky");
    ASSERT_TRUE(got.snapshot);
    EXPECT_EQ(*got.snapshot, "second-try");
    EXPECT_EQ(cache.stats().misses, 2u);
}
