#include "sim/sim_config.hh"

#include <stdexcept>

#include "bpred/engine_registry.hh"
#include "util/logging.hh"
#include "util/sha256.hh"

namespace smt
{

std::string
SimConfig::describe() const
{
    return csprintf("%s | %s | %s", workload.name.c_str(),
                    engineName(core.engine),
                    core.policyString().c_str());
}

SimConfig
table3Config(const WorkloadSpec &workload, EngineKind engine,
             unsigned fetch_threads, unsigned fetch_width,
             PolicyKind policy)
{
    SimConfig cfg;
    cfg.workload = workload;
    cfg.core.numThreads =
        static_cast<unsigned>(workload.benchmarks.size());
    cfg.core.engine = engine;
    // Apply the registry preset here (not only in makeEngine) so the
    // oracle/adaptive flags are visible to the front end and the
    // warmup configuration key.
    applyEnginePreset(engine, cfg.core.engineParams);
    cfg.core.policy = policy;
    cfg.core.fetchThreads = fetch_threads;
    cfg.core.fetchWidth = fetch_width;
    return cfg;
}

SimConfig
table3Config(const std::string &workload_name, EngineKind engine,
             unsigned fetch_threads, unsigned fetch_width,
             PolicyKind policy)
{
    // Accept a Table 2 workload name, a "trace:<path>[,...]" replay
    // workload, or a bare benchmark name.
    for (const auto &w : table2Workloads()) {
        if (w.name == workload_name)
            return table3Config(w, engine, fetch_threads, fetch_width,
                                policy);
    }
    if (isTraceWorkloadName(workload_name))
        return table3Config(traceWorkload(workload_name), engine,
                            fetch_threads, fetch_width, policy);
    WorkloadSpec single{workload_name, {workload_name}};
    return table3Config(single, engine, fetch_threads, fetch_width,
                        policy);
}

namespace
{

void
appendCacheKey(std::string &key, const CacheParams &c)
{
    key += csprintf("{%u,%u,%u,%u,%llu,%u}", c.sizeBytes, c.ways,
                    c.lineBytes, c.banks,
                    (unsigned long long)c.hitLatency, c.mshrs);
}

/**
 * Length-prefixed string append: user-controlled strings (benchmark
 * names, trace paths) must compose injectively — plain separator
 * joining would let "a,b" as one path collide with "a" and "b" as
 * two.
 */
void
appendStringKey(std::string &key, const std::string &s)
{
    key += csprintf("%zu:", s.size()) + s;
}

/**
 * SHA-256 of the running executable, hashed once per process. It
 * binds a warmup snapshot to the binary that wrote it, so a rebuilt
 * simulator never restores a warmup run by different model code.
 */
const std::string &
binaryFingerprint()
{
    static const std::string digest = [] {
        try {
            return sha256File("/proc/self/exe");
        } catch (const std::runtime_error &e) {
            throw std::runtime_error(csprintf(
                "cannot fingerprint the simulator binary, which keys "
                "every warmup snapshot: %s",
                e.what()));
        }
    }();
    return digest;
}

} // namespace

std::string
warmupConfigKey(const SimConfig &config)
{
    const CoreParams &c = config.core;
    const EngineParams &e = c.engineParams;
    const MemoryParams &m = c.memory;

    std::string key = "smtfetch-warmup-v3|binary=" + binaryFingerprint();
    key += csprintf("|seed=%llu|warmup=%llu",
                    (unsigned long long)config.seed,
                    (unsigned long long)config.warmupCycles);

    key += "|workload=";
    appendStringKey(key, config.workload.name);
    key += csprintf("|benchmarks=%zu:",
                    config.workload.benchmarks.size());
    for (const auto &b : config.workload.benchmarks)
        appendStringKey(key, b);
    key += csprintf("|traces=%zu:", config.workload.traces.size());
    for (const auto &t : config.workload.traces)
        appendStringKey(key, t);

    key += csprintf("|core=%u,%u,%u,%u,%u", c.numThreads,
                    static_cast<unsigned>(c.policy), c.fetchThreads,
                    c.fetchWidth, static_cast<unsigned>(c.engine));
    key += csprintf("|front=%u,%u,%u,%u", c.ftqEntries,
                    c.fetchBufferSize, c.decodeWidth, c.commitWidth);
    key += csprintf("|back=%u,%u,%u,%u,%u,%u,%u,%u,%u",
                    c.intIqEntries, c.ldstIqEntries, c.fpIqEntries,
                    c.robEntries, c.physIntRegs, c.physFpRegs,
                    c.intFUs, c.ldstFUs, c.fpFUs);
    key += csprintf("|lat=%llu,%llu,%llu,%llu",
                    (unsigned long long)c.intAluLatency,
                    (unsigned long long)c.intMultLatency,
                    (unsigned long long)c.fpLatency,
                    (unsigned long long)c.agenLatency);
    key += csprintf("|llp=%u,%llu",
                    static_cast<unsigned>(c.longLoadPolicy),
                    (unsigned long long)c.longLoadThreshold);
    // c.cycleSkip is deliberately excluded: skipping is bit-identical
    // to ticking, so both modes may share a warmup snapshot.

    key += csprintf("|engine=%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,"
                    "%u,%u,%u,%u,%u,%u",
                    e.gshareEntries, e.gshareHistoryBits,
                    e.gskewEntriesPerBank, e.gskewHistoryBits,
                    e.btbEntries, e.btbWays, e.ftbEntries, e.ftbWays,
                    e.ftbMaxBlock, e.streamL1Entries, e.streamL1Ways,
                    e.streamL2Entries, e.streamL2Ways,
                    e.streamMaxLength, e.dolcDepth, e.dolcOlderBits,
                    e.dolcLastBits, e.dolcCurrentBits, e.rasEntries);
    key += csprintf("|miss=%u,%u", e.missBlockInsts, e.btbScanCap);
    key += csprintf("|tage=%u,%u,%u,%u,%u,%u,%u,%u",
                    e.tageBimodalEntries, e.tageTables,
                    e.tageEntriesPerTable, e.tageTagBits,
                    e.tageCounterBits, e.tageMinHistory,
                    e.tageMaxHistory, e.tageUsefulResetPeriod);
    key += csprintf("|oracle=%u,%u,%u,%u",
                    e.perfectBp ? 1u : 0u, e.perfectIcache ? 1u : 0u,
                    e.adaptiveFetch ? 1u : 0u, e.adaptiveLowWidth);

    key += "|mem=";
    appendCacheKey(key, m.l1i);
    appendCacheKey(key, m.l1d);
    appendCacheKey(key, m.l2);
    key += csprintf(",%llu,%u,%u,%u,%llu,%llu",
                    (unsigned long long)m.memoryLatency,
                    m.itlbEntries, m.dtlbEntries, m.pageBytes,
                    (unsigned long long)m.tlbMissPenalty,
                    (unsigned long long)m.l1dLoadToUse);
    return key;
}

} // namespace smt
