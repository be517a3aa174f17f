/**
 * @file
 * WarmupSnapshotCache unit tests: the checkpoint directory (written
 * on fulfil, read by later caches, no snapshot retained in memory,
 * disk hits counted only for warmups the cache did not run) and
 * the single-flight warmup leases that make a popular key's warmup
 * run exactly once across concurrent callers.
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
// Checkpoint directory
// ---------------------------------------------------------------------

TEST(SnapshotCache, FulfilWritesTheDirectory)
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

TEST(SnapshotCache, LaterCachesReadTheDirectory)
{
    std::string dir = freshDir("snap_read");
    {
        WarmupSnapshotCache writer;
        insert(writer, "key1", "persisted", dir);
    }

    // A fresh cache (new process, conceptually) finds the file, and
    // reads it again on every acquire: nothing stays in memory.
    WarmupSnapshotCache cache;
    for (int i = 0; i < 2; ++i) {
        auto got = cache.acquire("key1", dir);
        ASSERT_TRUE(got.snapshot);
        EXPECT_TRUE(got.diskHit);
        EXPECT_FALSE(got.leader);
        EXPECT_EQ(*got.snapshot, "persisted");
    }
    auto s = cache.stats();
    EXPECT_EQ(s.diskHits, 2u);
    EXPECT_EQ(s.misses, 0u);
}

TEST(SnapshotCache, ReadingBackItsOwnWarmupIsNotADiskHit)
{
    // A second point of a key that arrives after the leader settled
    // reads the leader's file; one that arrived earlier shared it.
    // Both are this cache's warmup, so neither is a disk hit, and a
    // sweep's count does not depend on which one happened.
    std::string dir = freshDir("snap_own");
    WarmupSnapshotCache cache;
    insert(cache, "key1", "warm", dir);
    auto got = cache.acquire("key1", dir);
    ASSERT_TRUE(got.snapshot);
    EXPECT_EQ(*got.snapshot, "warm");
    EXPECT_FALSE(got.diskHit);
    EXPECT_EQ(cache.stats().diskHits, 0u);
}

TEST(SnapshotCache, WithoutADirectoryNothingOutlivesTheLease)
{
    WarmupSnapshotCache cache;
    insert(cache, "a", "bytes");
    auto again = cache.acquire("a");
    EXPECT_FALSE(again.snapshot);
    EXPECT_TRUE(again.leader);
    cache.abandon("a");
    EXPECT_EQ(cache.stats().misses, 2u);
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
    EXPECT_EQ(s.diskHits, 0u);
}

TEST(SnapshotCache, AbandonedLeaseElectsANewLeader)
{
    std::string dir = freshDir("snap_abandon");
    WarmupSnapshotCache cache;
    auto first = cache.acquire("flaky", dir);
    ASSERT_TRUE(first.leader);

    std::thread waiter([&] {
        // Blocks on the first lease, then inherits it.
        auto got = cache.acquire("flaky", dir);
        EXPECT_TRUE(got.leader);
        cache.fulfil("flaky", "second-try", dir);
    });

    // Give the waiter time to block, then fail the first warmup.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.abandon("flaky");
    waiter.join();

    // A later cache finds the second leader's snapshot on disk.
    WarmupSnapshotCache later;
    auto got = later.acquire("flaky", dir);
    ASSERT_TRUE(got.snapshot);
    EXPECT_TRUE(got.diskHit);
    EXPECT_EQ(*got.snapshot, "second-try");
    EXPECT_EQ(cache.stats().misses, 2u);
}
