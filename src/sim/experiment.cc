#include "sim/experiment.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "bpred/engine_registry.hh"
#include "sim/scheduler.hh"
#include "sim/snapshot_cache.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace smt
{

namespace
{

/** Emit one result as a BENCH-record `results[]` element. */
void
writeResultJson(JsonWriter &jw, const ExperimentResult &r)
{
    jw.beginObject();
    jw.field("workload", r.workload);
    jw.field("engine", engineName(r.engine));
    jw.field("policy", policyName(r.policy));
    jw.field("fetchThreads", r.fetchThreads);
    jw.field("fetchWidth", r.fetchWidth);
    jw.field("policyString",
             std::string(policyName(r.policy)) + "." +
                 r.policyDotString());
    if (r.overrides.any()) {
        jw.field("variant", r.overrides.describe());
        jw.key("overrides");
        jw.beginObject();
        r.overrides.writeJson(jw);
        jw.endObject();
    }
    jw.field("warmupCycles", r.warmupCycles);
    jw.field("measureCycles", r.measureCycles);
    jw.field("ipfc", r.ipfc);
    jw.field("ipc", r.ipc);
    jw.key("stats");
    if (r.statsJson.empty())
        jw.raw("{}");
    else
        jw.raw(r.statsJson);
    jw.endObject();
}

} // namespace

std::string
ExperimentResult::policyDotString() const
{
    return csprintf("%u.%u", fetchThreads, fetchWidth);
}

bool
RunOverrides::any() const
{
    return ftqEntries || fetchBufferSize || robEntries ||
           longLoadPolicy || longLoadThreshold || predictorShift > 0 ||
           !engineParams.empty();
}

void
RunOverrides::apply(CoreParams &core) const
{
    if (ftqEntries)
        core.ftqEntries = *ftqEntries;
    if (fetchBufferSize)
        core.fetchBufferSize = *fetchBufferSize;
    if (robEntries)
        core.robEntries = *robEntries;
    if (longLoadPolicy)
        core.longLoadPolicy = *longLoadPolicy;
    if (longLoadThreshold)
        core.longLoadThreshold = *longLoadThreshold;
    for (const auto &[key, value] : engineParams) {
        const EngineParamSpec *spec =
            EngineRegistry::instance().findParam(key);
        if (spec == nullptr)
            fatal("unknown engine parameter '%s' (the spec layer "
                  "validates these)",
                  key.c_str());
        spec->set(core.engineParams, value);
    }
    if (predictorShift > 0) {
        auto &ep = core.engineParams;
        ep.gshareEntries >>= predictorShift;
        ep.gskewEntriesPerBank >>= predictorShift;
        ep.btbEntries >>= predictorShift;
        ep.ftbEntries >>= predictorShift;
        ep.streamL1Entries >>= predictorShift;
        ep.streamL2Entries >>= predictorShift;
    }
}

std::string
RunOverrides::describe() const
{
    std::string s;
    auto add = [&s](const std::string &part) {
        s += (s.empty() ? "" : " ") + part;
    };
    if (ftqEntries)
        add(csprintf("ftq=%u", *ftqEntries));
    if (fetchBufferSize)
        add(csprintf("fbuf=%u", *fetchBufferSize));
    if (robEntries)
        add(csprintf("rob=%u", *robEntries));
    if (longLoadPolicy)
        add(csprintf("llp=%s", longLoadPolicyName(*longLoadPolicy)));
    if (longLoadThreshold)
        add(csprintf("llthresh=%llu",
                     (unsigned long long)*longLoadThreshold));
    if (predictorShift > 0)
        add(csprintf("predshift=%u", predictorShift));
    for (const auto &[key, value] : engineParams)
        add(csprintf("%s=%llu", key.c_str(),
                     (unsigned long long)value));
    return s;
}

void
RunOverrides::writeJson(JsonWriter &jw) const
{
    if (ftqEntries)
        jw.field("ftqEntries", *ftqEntries);
    if (fetchBufferSize)
        jw.field("fetchBufferSize", *fetchBufferSize);
    if (robEntries)
        jw.field("robEntries", *robEntries);
    if (longLoadPolicy)
        jw.field("longLoadPolicy",
                 longLoadPolicyName(*longLoadPolicy));
    if (longLoadThreshold)
        jw.field("longLoadThreshold", *longLoadThreshold);
    if (predictorShift > 0)
        jw.field("predictorShift", predictorShift);
    for (const auto &[key, value] : engineParams)
        jw.field(key, value);
}

SweepReport
ExperimentRunner::run(const SweepRequest &request) const
{
    return run(request, SweepSubmitOptions{});
}

SweepReport
ExperimentRunner::run(const SweepRequest &request,
                      SweepSubmitOptions options) const
{
    // A reuse-enabled run gets a private cache scoped to this call;
    // snapshots still persist across calls through
    // request.checkpointDir's disk tier.
    std::optional<WarmupSnapshotCache> cache;
    if (request.reuseEnabled())
        cache.emplace();

    unsigned workers = std::min<unsigned>(
        defaultSweepWorkers(),
        (unsigned)std::max<std::size_t>(request.points.size(), 1));
    SweepScheduler scheduler(workers, cache ? &*cache : nullptr);
    return scheduler.wait(
        scheduler.submit(request, "", std::move(options)));
}

void
ExperimentRunner::printFigure(std::ostream &os, const std::string &title,
                              const std::vector<ExperimentResult> &results,
                              bool fetch_throughput)
{
    // Group rows by (workload, policy string), columns by engine.
    struct Key
    {
        std::string workload;
        std::string policy;
        bool
        operator<(const Key &o) const
        {
            if (workload != o.workload)
                return workload < o.workload;
            return policy < o.policy;
        }
    };
    std::map<Key, std::map<EngineKind, double>> cells;
    std::vector<Key> row_order;
    // Columns: registry order, filtered to the engines present so a
    // paper-trio figure and a full-zoo ablation both render tight.
    std::vector<EngineKind> columns;
    for (const auto &r : results) {
        if (std::find(columns.begin(), columns.end(), r.engine) ==
            columns.end())
            columns.push_back(r.engine);
    }
    std::sort(columns.begin(), columns.end(),
              [](EngineKind a, EngineKind b) {
                  return static_cast<unsigned>(a) <
                         static_cast<unsigned>(b);
              });
    for (const auto &r : results) {
        // Non-default selection policies are spelled out so a grid
        // mixing ICOUNT and RR keeps distinct rows (ICOUNT stays
        // bare for the paper figures).
        std::string policy = r.policyDotString();
        if (r.policy != PolicyKind::ICount)
            policy = std::string(policyName(r.policy)) + "." + policy;
        std::string variant = r.overrides.describe();
        if (!variant.empty())
            policy += " " + variant;
        Key k{r.workload, policy};
        if (cells.find(k) == cells.end())
            row_order.push_back(k);
        cells[k][r.engine] =
            fetch_throughput ? r.ipfc : r.ipc;
    }

    std::vector<std::string> header{"workload", "policy"};
    for (EngineKind e : columns)
        header.push_back(engineName(e));
    TextTable table(header);
    for (const auto &k : row_order) {
        auto &row = cells[k];
        std::vector<std::string> cols{k.workload, k.policy};
        for (EngineKind e : columns) {
            auto it = row.find(e);
            cols.push_back(it == row.end()
                               ? std::string("-")
                               : TextTable::num(it->second));
        }
        table.addRow(cols);
    }
    table.print(os, title);
}

void
ExperimentRunner::writeJson(
    std::ostream &os, const std::string &bench,
    const std::vector<ExperimentResult> &results,
    const std::vector<std::pair<std::string, double>> &metrics,
    const SweepTiming *timing, const std::vector<ClaimVerdict> *claims)
{
    JsonWriter jw(os, /*indent_step=*/2);
    jw.beginObject();
    jw.field("schema", "smtfetch-bench-v1");
    jw.field("bench", bench);
    if (timing != nullptr && timing->reuseEnabled) {
        // How the warmup-sharing path served the grid: counts only,
        // so the record stays a pure function of the request.
        jw.key("warmupReuse");
        jw.beginObject();
        jw.field("gridPoints",
                 static_cast<std::uint64_t>(timing->gridPoints));
        jw.field("warmupGroups",
                 static_cast<std::uint64_t>(timing->warmupGroups));
        jw.field("warmupRuns",
                 static_cast<std::uint64_t>(timing->warmupRuns));
        jw.field("restoredRuns",
                 static_cast<std::uint64_t>(timing->restoredRuns));
        jw.field("directRuns",
                 static_cast<std::uint64_t>(timing->directRuns));
        // Only resumed sweeps have journal-served points; other
        // records stay byte-identical.
        if (timing->journaledPoints > 0)
            jw.field("journaledPoints",
                     static_cast<std::uint64_t>(
                         timing->journaledPoints));
        jw.field("cacheHits", timing->cacheHits);
        jw.field("cacheDiskHits", timing->cacheDiskHits);
        jw.field("cacheEvictions", timing->cacheEvictions);
        jw.endObject();
    }
    if (!metrics.empty()) {
        jw.key("metrics");
        jw.beginObject();
        for (const auto &[name, v] : metrics)
            jw.field(name, v);
        jw.endObject();
    }
    if (claims != nullptr) {
        jw.key("expectations");
        jw.beginArray();
        for (const ClaimVerdict &c : *claims) {
            jw.beginObject();
            jw.field("claim", c.claim);
            jw.field("holds", static_cast<std::uint64_t>(c.holds));
            jw.field("of", static_cast<std::uint64_t>(c.of));
            jw.field("required", static_cast<std::uint64_t>(c.required));
            jw.field("pass", c.pass());
            if (!c.expectedToFail.empty())
                jw.field("expectedToFail", c.expectedToFail);
            jw.endObject();
        }
        jw.endArray();
    }
    jw.key("results");
    jw.beginArray();
    for (const auto &r : results)
        writeResultJson(jw, r);
    jw.endArray();
    jw.endObject();
    os << '\n';
}

// allEngines()/paperEngines() are defined in bpred/engine_registry.cc
// next to the registry they enumerate.

} // namespace smt
