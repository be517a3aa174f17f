#include "sim/snapshot_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/logging.hh"
#include "util/random.hh"

namespace smt
{

namespace
{

/** Read a snapshot file whole; false when it cannot be read. */
bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = is ? std::streamoff(is.tellg()) : -1;
    if (size < 0)
        return false;
    out.resize(static_cast<std::size_t>(size));
    is.seekg(0);
    is.read(out.data(), static_cast<std::streamsize>(out.size()));
    return static_cast<bool>(is);
}

} // namespace

std::string
WarmupSnapshotCache::diskPathFor(const std::string &disk_dir,
                                 const std::string &key)
{
    return disk_dir + "/" +
           csprintf("smtckpt_%016llx.ckpt",
                    (unsigned long long)Rng::hashString(key));
}

WarmupSnapshotCache::Acquired
WarmupSnapshotCache::acquire(const std::string &key,
                             const std::string &disk_dir)
{
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
        auto inf = inflight.find(key);
        if (inf != inflight.end()) {
            // Another thread is warming this key; wait for its
            // verdict rather than duplicating the warmup.
            std::shared_ptr<Inflight> state = inf->second;
            cv.wait(lock, [&] { return state->done; });
            if (state->snapshot)
                return Acquired{state->snapshot, state->diskHit, false};
            continue; // leader abandoned; retry (maybe lead)
        }

        // Miss: this caller leads. Register the lease before any
        // disk I/O so concurrent callers wait instead of racing the
        // file read.
        auto state = std::make_shared<Inflight>();
        inflight.emplace(key, state);
        const bool own_warmup = warmed.count(key) != 0;
        lock.unlock();

        if (!disk_dir.empty()) {
            std::string bytes;
            if (readFileBytes(diskPathFor(disk_dir, key), bytes)) {
                auto snapshot = std::make_shared<const std::string>(
                    std::move(bytes));
                lock.lock();
                // Reading back this cache's own warmup is the same
                // share a concurrent waiter gets, not a disk hit.
                state->diskHit = !own_warmup;
                if (state->diskHit)
                    ++counters.diskHits;
                settleLocked(key, snapshot);
                return Acquired{snapshot, state->diskHit, false};
            }
        }

        lock.lock();
        ++counters.misses;
        return Acquired{nullptr, false, true};
    }
}

void
WarmupSnapshotCache::fulfil(const std::string &key,
                            std::string snapshot,
                            const std::string &disk_dir)
{
    auto shared =
        std::make_shared<const std::string>(std::move(snapshot));
    bool persistFailed = false;

    if (!disk_dir.empty()) {
        // Write-then-rename keeps concurrent sweeps sharing the
        // directory from observing a half-written snapshot; failures
        // only cost persistence, never the sweep.
        std::string path = diskPathFor(disk_dir, key);
        unsigned long long pid =
#ifdef _WIN32
            0;
#else
            static_cast<unsigned long long>(::getpid());
#endif
        std::string tmp =
            path + csprintf(".tmp%llx.%llx", pid,
                            (unsigned long long)
                                reinterpret_cast<std::uintptr_t>(
                                    shared.get()));
        std::ofstream os(tmp, std::ios::binary);
        if (os && os.write(shared->data(),
                           static_cast<std::streamsize>(
                               shared->size()))) {
            os.close();
            if (std::rename(tmp.c_str(), path.c_str()) != 0) {
                // rename(2) fails across filesystems (EXDEV), on
                // full disks, on permission changes — name the
                // reason, the temp file AND the counter, so a disk
                // tier that silently persists nothing is visible in
                // the cache stats instead of just slow.
                int err = errno;
                std::remove(tmp.c_str());
                warn("cannot move warmup checkpoint into place: "
                     "%s: %s",
                     path.c_str(), std::strerror(err));
                persistFailed = true;
            }
        } else {
            int err = errno;
            os.close();
            std::remove(tmp.c_str());
            warn("cannot persist warmup checkpoint: %s: %s",
                 path.c_str(), std::strerror(err));
            persistFailed = true;
        }
    }

    std::lock_guard<std::mutex> lock(m);
    if (persistFailed)
        ++counters.persistFailures;
    warmed.insert(key);
    settleLocked(key, std::move(shared));
}

void
WarmupSnapshotCache::abandon(const std::string &key)
{
    std::lock_guard<std::mutex> lock(m);
    settleLocked(key, nullptr);
}

void
WarmupSnapshotCache::settleLocked(const std::string &key,
                                  SnapshotPtr snapshot)
{
    auto inf = inflight.find(key);
    if (inf != inflight.end()) {
        inf->second->snapshot = std::move(snapshot);
        inf->second->done = true;
        inflight.erase(inf);
    }
    cv.notify_all();
}

WarmupSnapshotCache::Stats
WarmupSnapshotCache::stats() const
{
    std::lock_guard<std::mutex> lock(m);
    return counters;
}

} // namespace smt
