/**
 * @file
 * Shared warmup-snapshot store: post-warmup simulator checkpoints
 * keyed by warmupConfigKey, persisted in a checkpoint directory, with
 * single-flight warmup leasing so a popular warmup configuration is
 * simulated once — across grid points, concurrent sweeps sharing the
 * cache, and (through the directory) later runs.
 */

#ifndef SMTFETCH_SIM_SNAPSHOT_CACHE_HH
#define SMTFETCH_SIM_SNAPSHOT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace smt
{

/**
 * Thread-safe warmup-snapshot store (the byte strings
 * Simulator::saveCheckpointToString produces).
 *
 * Snapshots live in a directory of `smtckpt_<confighash>.ckpt`
 * files, read on acquire and written on fulfil. The directory is a
 * per-call parameter, so one shared cache can serve requests with
 * different (or no) directories. No snapshot is retained in memory
 * beyond the ones callers hold; the cache keeps only the keys of
 * the warmups it ran, to tell disk hits from its own snapshots.
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
    /** Snapshot bytes shared between a leader and its waiters. */
    using SnapshotPtr = std::shared_ptr<const std::string>;

    /** Counters since construction. */
    struct Stats
    {
        /** Directory loads of warmups this cache did not run. */
        std::uint64_t diskHits = 0;
        std::uint64_t misses = 0; //!< leases granted (warmups led)

        /** Directory persists that failed (write or rename error,
         *  e.g. a full or cross-filesystem checkpoint directory).
         *  The sweep continues; only persistence is lost. */
        std::uint64_t persistFailures = 0;
    };

    /** Outcome of an acquire() call. Exactly one of snapshot/leader. */
    struct Acquired
    {
        /** Non-null on a hit: restore from this and go. */
        SnapshotPtr snapshot;

        /**
         * The snapshot came from the directory and not from a warmup
         * this cache ran: a load by this caller, or by the lease
         * leader this caller waited on. Counted the same whichever
         * of two points sharing a key reached the lease first.
         */
        bool diskHit = false;

        /**
         * Null snapshot: the caller holds the key's warmup lease and
         * must fulfil(key, ...) after running the warmup, or
         * abandon(key) on failure (waiters then elect a new leader).
         */
        bool leader = false;
    };

    /**
     * Look the key up in `disk_dir` (when non-empty), blocking while
     * another thread holds the key's lease and sharing its snapshot.
     */
    Acquired acquire(const std::string &key,
                     const std::string &disk_dir = "");

    /**
     * Publish a leader's snapshot: writes it to `disk_dir` when
     * non-empty (write-then-rename, so concurrent processes sharing
     * the directory never observe a partial file), and wakes every
     * waiter with the snapshot.
     */
    void fulfil(const std::string &key, std::string snapshot,
                const std::string &disk_dir = "");

    /**
     * Give a lease up without a snapshot (the warmup threw). Waiters
     * retry; the first one becomes the new leader.
     */
    void abandon(const std::string &key);

    Stats stats() const;

    /** The directory's file for a warmup key. */
    static std::string diskPathFor(const std::string &disk_dir,
                                   const std::string &key);

  private:
    struct Inflight
    {
        bool done = false;
        bool diskHit = false; //!< snapshot is a directory hit
        SnapshotPtr snapshot; //!< null when abandoned
    };

    /** Under `m`: end the key's lease, handing waiters `snapshot`. */
    void settleLocked(const std::string &key, SnapshotPtr snapshot);

    mutable std::mutex m;
    std::condition_variable cv;
    std::unordered_map<std::string, std::shared_ptr<Inflight>>
        inflight;
    /** Keys whose warmup this cache ran and fulfilled: a later load
     *  of one from the directory reads back that warmup. */
    std::unordered_set<std::string> warmed;
    Stats counters;
};

} // namespace smt

#endif // SMTFETCH_SIM_SNAPSHOT_CACHE_HH
