/**
 * @file
 * Shared warmup-snapshot cache: a size-limited in-memory LRU of
 * post-warmup simulator checkpoints keyed by warmupConfigKey, with an
 * optional persistent on-disk tier and single-flight warmup leasing
 * so a popular warmup configuration is simulated once — across grid
 * points, concurrent sweeps sharing the cache, and (through the disk
 * tier) later runs.
 */

#ifndef SMTFETCH_SIM_SNAPSHOT_CACHE_HH
#define SMTFETCH_SIM_SNAPSHOT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace smt
{

/**
 * Thread-safe LRU cache of warmup snapshots (the byte strings
 * Simulator::saveCheckpointToString produces).
 *
 * Tiers:
 *  - memory: bounded by maxBytes; least-recently-used snapshots are
 *    evicted when an insertion would exceed the budget (counted in
 *    Stats::evictions). Snapshots are handed out as shared pointers,
 *    so eviction never invalidates a snapshot a restore is using.
 *  - disk: a directory of `smtckpt_<confighash>.ckpt` files (the
 *    PR 4 checkpointDir format), consulted on a memory miss and
 *    written through on fulfil. The directory is a per-call
 *    parameter, so one shared cache can serve requests with
 *    different (or no) persistent tiers.
 *
 * Warmup de-duplication uses single-flight leases: the first caller
 * to miss a key becomes its *leader* (Acquired::leader) and must
 * either fulfil() the key with a snapshot or abandon() it; concurrent
 * acquire() calls for the same key block until the leader publishes,
 * then share the leader's snapshot instead of re-running the warmup.
 */
class WarmupSnapshotCache
{
  public:
    /** Snapshot bytes shared between the cache and active restores. */
    using SnapshotPtr = std::shared_ptr<const std::string>;

    static constexpr std::size_t defaultMaxBytes =
        std::size_t(256) << 20;

    explicit WarmupSnapshotCache(
        std::size_t max_bytes = defaultMaxBytes);

    /** Counters since construction (monotonic except bytes/entries). */
    struct Stats
    {
        std::uint64_t hits = 0;      //!< served from the memory tier
        std::uint64_t diskHits = 0;  //!< leader loads from the disk tier
        std::uint64_t misses = 0;    //!< leases granted (warmups led)
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0; //!< LRU removals (size pressure)

        /** Disk-tier persists that failed (write or rename error,
         *  e.g. a full or cross-filesystem checkpoint directory).
         *  The sweep continues; only persistence is lost. */
        std::uint64_t persistFailures = 0;
        std::size_t bytes = 0;       //!< resident snapshot bytes
        std::size_t entries = 0;     //!< resident snapshots
        std::size_t maxBytes = 0;
    };

    /** Outcome of an acquire() call. Exactly one of snapshot/leader. */
    struct Acquired
    {
        /** Non-null on a hit: restore from this and go. */
        SnapshotPtr snapshot;

        /** The hit was served by loading the disk tier. */
        bool diskHit = false;

        /**
         * Null snapshot: the caller holds the key's warmup lease and
         * must fulfil(key, ...) after running the warmup, or
         * abandon(key) on failure (waiters then elect a new leader).
         */
        bool leader = false;
    };

    /**
     * Look the key up (memory, then `disk_dir` when non-empty),
     * blocking while another thread holds the key's lease. Disk loads
     * are promoted into the memory tier.
     */
    Acquired acquire(const std::string &key,
                     const std::string &disk_dir = "");

    /**
     * Publish a leader's snapshot: inserts into the memory tier,
     * writes through to `disk_dir` when non-empty (write-then-rename,
     * so concurrent processes sharing the directory never observe a
     * partial file), and wakes every waiter with the snapshot.
     */
    void fulfil(const std::string &key, std::string snapshot,
                const std::string &disk_dir = "");

    /**
     * Give a lease up without a snapshot (the warmup threw). Waiters
     * retry; the first one becomes the new leader.
     */
    void abandon(const std::string &key);

    Stats stats() const;

    /** The disk-tier file for a warmup key (PR 4 cache naming). */
    static std::string diskPathFor(const std::string &disk_dir,
                                   const std::string &key);

  private:
    struct Inflight
    {
        bool done = false;
        SnapshotPtr snapshot; //!< null when abandoned
    };

    struct Entry
    {
        SnapshotPtr snapshot;
        std::list<std::string>::iterator lruPos;
    };

    /** Insert under `m`; evicts LRU tails past the byte budget. */
    void insertLocked(const std::string &key, SnapshotPtr snapshot);

    mutable std::mutex m;
    std::condition_variable cv;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru; //!< front = most recent
    std::unordered_map<std::string, std::shared_ptr<Inflight>>
        inflight;
    const std::size_t maxBytes;
    Stats counters;
};

} // namespace smt

#endif // SMTFETCH_SIM_SNAPSHOT_CACHE_HH
