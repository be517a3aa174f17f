#include "sim/snapshot_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/logging.hh"
#include "util/random.hh"

namespace smt
{

namespace
{

/** Read a disk-tier snapshot; empty optional-style "" on failure is
 *  not distinguishable from an empty file, so failures return false. */
bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    out.assign((std::istreambuf_iterator<char>(is)),
               std::istreambuf_iterator<char>());
    return is.good() || is.eof();
}

} // namespace

WarmupSnapshotCache::WarmupSnapshotCache(std::size_t max_bytes)
    : maxBytes(max_bytes)
{
    counters.maxBytes = max_bytes;
}

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
        auto it = entries.find(key);
        if (it != entries.end()) {
            lru.splice(lru.begin(), lru, it->second.lruPos);
            ++counters.hits;
            return Acquired{it->second.snapshot, false, false};
        }
        auto inf = inflight.find(key);
        if (inf != inflight.end()) {
            // Another thread is warming this key; wait for its
            // verdict rather than duplicating the warmup.
            std::shared_ptr<Inflight> state = inf->second;
            cv.wait(lock, [&] { return state->done; });
            if (state->snapshot) {
                ++counters.hits;
                return Acquired{state->snapshot, false, false};
            }
            continue; // leader abandoned; retry (maybe lead)
        }

        // Miss: this caller leads. Register the lease before any
        // disk I/O so concurrent callers wait instead of racing the
        // file read.
        inflight.emplace(key, std::make_shared<Inflight>());
        lock.unlock();

        if (!disk_dir.empty()) {
            std::string bytes;
            if (readFileBytes(diskPathFor(disk_dir, key), bytes)) {
                auto snapshot = std::make_shared<const std::string>(
                    std::move(bytes));
                lock.lock();
                ++counters.diskHits;
                insertLocked(key, snapshot);
                auto state = inflight.at(key);
                state->snapshot = snapshot;
                state->done = true;
                inflight.erase(key);
                cv.notify_all();
                return Acquired{snapshot, true, false};
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
    insertLocked(key, shared);
    auto inf = inflight.find(key);
    if (inf != inflight.end()) {
        inf->second->snapshot = std::move(shared);
        inf->second->done = true;
        inflight.erase(inf);
    }
    cv.notify_all();
}

void
WarmupSnapshotCache::abandon(const std::string &key)
{
    std::lock_guard<std::mutex> lock(m);
    auto inf = inflight.find(key);
    if (inf != inflight.end()) {
        inf->second->done = true; // snapshot stays null
        inflight.erase(inf);
    }
    cv.notify_all();
}

void
WarmupSnapshotCache::insertLocked(const std::string &key,
                                  SnapshotPtr snapshot)
{
    if (entries.find(key) != entries.end())
        return; // a concurrent fulfil won; keep the resident copy
    if (snapshot->size() > maxBytes)
        return; // would evict everything and still not fit
    lru.push_front(key);
    entries.emplace(key, Entry{std::move(snapshot), lru.begin()});
    counters.bytes += entries.at(key).snapshot->size();
    ++counters.insertions;
    while (counters.bytes > maxBytes && !lru.empty()) {
        const std::string &victim = lru.back();
        auto it = entries.find(victim);
        counters.bytes -= it->second.snapshot->size();
        entries.erase(it);
        lru.pop_back();
        ++counters.evictions;
    }
    counters.entries = entries.size();
}

WarmupSnapshotCache::Stats
WarmupSnapshotCache::stats() const
{
    std::lock_guard<std::mutex> lock(m);
    return counters;
}

} // namespace smt
