#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/checkpoint.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace smt
{

Cache::Cache(const CacheParams &params, Cache *next, Cycle memory_latency)
    : params_(params), nextLevel(next), memoryLatency(memory_latency)
{
    if (params_.lineBytes == 0 ||
        (params_.lineBytes & (params_.lineBytes - 1)) != 0)
        fatal("%s: line size must be a power of two",
              params_.name.c_str());
    if (params_.sizeBytes % (params_.lineBytes * params_.ways) != 0)
        fatal("%s: size not divisible by way*line", params_.name.c_str());
    numSets = params_.sizeBytes / (params_.lineBytes * params_.ways);
    if ((numSets & (numSets - 1)) != 0)
        fatal("%s: set count must be a power of two",
              params_.name.c_str());
    setBits = std::bit_width(numSets) - 1;
    lineShift = std::bit_width(params_.lineBytes) - 1;
    lines.assign(static_cast<std::size_t>(numSets) * params_.ways,
                 Line{});
    missWindow.assign(std::max(4u, params_.mshrs * 2), MissSlot{});
}

std::uint64_t
Cache::lineIndex(Addr addr) const
{
    return (addr >> lineShift) & mask(setBits);
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return (addr >> lineShift) >> setBits;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    Line *set = &lines[lineIndex(addr) * params_.ways];
    std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w)
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    const Line *set = &lines[lineIndex(addr) * params_.ways];
    std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w)
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    return nullptr;
}

Cache::Line *
Cache::victimFor(Addr addr)
{
    Line *set = &lines[lineIndex(addr) * params_.ways];
    Line *victim = &set[0];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (!set[w].valid)
            return &set[w];
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    return victim;
}

unsigned
Cache::outstandingFills(Cycle now, Cycle &earliest) const
{
    // MSHR occupancy approximated by the ring of recent miss
    // completion times (scanning the full tag array per access would
    // be prohibitive).
    unsigned count = 0;
    earliest = 0;
    for (const auto &line : missWindow) {
        if (line.readyAt > now) {
            ++count;
            if (earliest == 0 || line.readyAt < earliest)
                earliest = line.readyAt;
        }
    }
    return count;
}

Cycle
Cache::access(Addr addr, bool is_write, Cycle now, ThreadID tid)
{
    const unsigned t =
        tid >= 0 && static_cast<unsigned>(tid) < maxThreads
            ? static_cast<unsigned>(tid)
            : 0;
    ++cacheStats.accesses;
    ++cacheStats.threadAccesses[t];
    if (is_write)
        ++cacheStats.writeAccesses;

    if (Line *line = findLine(addr)) {
        line->lru = ++lruClock;
        if (line->readyAt > now) {
            // Line still being filled: MSHR merge.
            ++cacheStats.mshrMerges;
            return (line->readyAt - now) + params_.hitLatency;
        }
        return params_.hitLatency;
    }

    // Miss.
    ++cacheStats.misses;
    ++cacheStats.threadMisses[t];

    Cycle queue_delay = 0;
    Cycle earliest = 0;
    if (outstandingFills(now, earliest) >= params_.mshrs &&
        earliest > now) {
        // All MSHRs busy: the new miss waits for the earliest fill.
        ++cacheStats.mshrFullStalls;
        queue_delay = earliest - now;
    }

    Cycle below = nextLevel != nullptr
                      ? nextLevel->access(addr, is_write,
                                          now + queue_delay +
                                              params_.hitLatency,
                                          tid)
                      : memoryLatency;

    Cycle total = queue_delay + params_.hitLatency + below;

    Line *victim = victimFor(addr);
    if (victim->valid)
        ++cacheStats.evictions;
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lru = ++lruClock;
    victim->readyAt = now + total;

    missWindow[missWindowPos] = {victim->readyAt};
    missWindowPos = (missWindowPos + 1) % missWindow.size();

    return total;
}

bool
Cache::wouldHit(Addr addr) const
{
    return findLine(addr) != nullptr;
}

void
Cache::registerStats(StatsRegistry &reg, const std::string &prefix,
                     unsigned num_threads) const
{
    reg.addCounter(prefix + ".accesses", "total accesses",
                   &cacheStats.accesses);
    reg.addCounter(prefix + ".misses", "misses", &cacheStats.misses);
    reg.addCounter(prefix + ".writeAccesses", "write accesses",
                   &cacheStats.writeAccesses);
    reg.addCounter(prefix + ".mshrMerges",
                   "misses merged into an in-flight MSHR",
                   &cacheStats.mshrMerges);
    reg.addCounter(prefix + ".mshrFullStalls",
                   "accesses stalled on full MSHRs",
                   &cacheStats.mshrFullStalls);
    reg.addCounter(prefix + ".evictions", "line evictions",
                   &cacheStats.evictions);
    reg.addFormula(prefix + ".missRate", "misses per access",
                   [this]() { return cacheStats.missRate(); });
    for (unsigned t = 0; t < std::min(num_threads, maxThreads); ++t) {
        reg.addCounter(csprintf("%s.thread%u.accesses",
                                prefix.c_str(), t),
                       "accesses issued by this thread",
                       &cacheStats.threadAccesses[t]);
        reg.addCounter(csprintf("%s.thread%u.misses",
                                prefix.c_str(), t),
                       "misses attributed to this thread",
                       &cacheStats.threadMisses[t]);
    }
}

void
Cache::reset()
{
    for (auto &line : lines)
        line = Line{};
    for (auto &m : missWindow)
        m = MissSlot{};
    lruClock = 0;
    missWindowPos = 0;
    cacheStats = CacheStats{};
}

void
Cache::save(CheckpointWriter &w) const
{
    w.u32(numSets);
    w.u32(params_.ways);
    w.u32(params_.lineBytes);
    w.u64(lruClock);
    for (const Line &line : lines) {
        w.b(line.valid);
        w.u64(line.tag);
        w.u64(line.lru);
        w.u64(line.readyAt);
    }
    w.u32(static_cast<std::uint32_t>(missWindow.size()));
    for (const MissSlot &m : missWindow)
        w.u64(m.readyAt);
    w.u64(missWindowPos);
    w.u64(cacheStats.accesses);
    w.u64(cacheStats.misses);
    w.u64(cacheStats.writeAccesses);
    w.u64(cacheStats.mshrMerges);
    w.u64(cacheStats.mshrFullStalls);
    w.u64(cacheStats.evictions);
    for (unsigned t = 0; t < maxThreads; ++t) {
        w.u64(cacheStats.threadAccesses[t]);
        w.u64(cacheStats.threadMisses[t]);
    }
}

void
Cache::restore(CheckpointReader &r)
{
    std::uint32_t sets = r.u32();
    std::uint32_t ways = r.u32();
    std::uint32_t line_bytes = r.u32();
    if (sets != numSets || ways != params_.ways ||
        line_bytes != params_.lineBytes)
        r.fail(csprintf("%s geometry %ux%ux%uB does not match this "
                        "configuration's %ux%ux%uB (configuration "
                        "mismatch)",
                        params_.name.c_str(), sets, ways, line_bytes,
                        numSets, params_.ways, params_.lineBytes));
    lruClock = r.u64();
    for (Line &line : lines) {
        line.valid = r.b();
        line.tag = r.u64();
        line.lru = r.u64();
        line.readyAt = r.u64();
    }
    std::uint32_t mw = r.u32();
    if (mw != missWindow.size())
        r.fail(csprintf("%s miss window holds %u slots but this "
                        "configuration uses %zu",
                        params_.name.c_str(), mw, missWindow.size()));
    for (MissSlot &m : missWindow)
        m.readyAt = r.u64();
    missWindowPos = r.u64();
    if (missWindowPos >= missWindow.size())
        r.fail(csprintf("%s miss-window position %llu out of range",
                        params_.name.c_str(),
                        (unsigned long long)missWindowPos));
    cacheStats.accesses = r.u64();
    cacheStats.misses = r.u64();
    cacheStats.writeAccesses = r.u64();
    cacheStats.mshrMerges = r.u64();
    cacheStats.mshrFullStalls = r.u64();
    cacheStats.evictions = r.u64();
    for (unsigned t = 0; t < maxThreads; ++t) {
        cacheStats.threadAccesses[t] = r.u64();
        cacheStats.threadMisses[t] = r.u64();
    }
}

} // namespace smt
