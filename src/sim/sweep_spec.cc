#include "sim/sweep_spec.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "bpred/engine_registry.hh"
#include "util/logging.hh"
#include "workload/corpus.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"
#include "workload/workloads.hh"

namespace smt
{

namespace
{

std::string
lower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

[[noreturn]] void
specFail(const std::string &context, const std::string &what)
{
    throw SpecError(context + ": " + what);
}

/** Checked number-to-unsigned conversion with spec context. */
std::uint64_t
uintValue(const JsonValue &v, const std::string &context,
          const char *what)
{
    if (!v.isNumber())
        specFail(context, csprintf("%s must be a number, found %s",
                                   what, v.kindName()));
    try {
        return v.asUInt64();
    } catch (const JsonTypeError &) {
        specFail(context,
                 csprintf("%s must be a non-negative integer, "
                          "found %s",
                          what, v.dump().c_str()));
    }
}

/** uintValue additionally bounded to 32 bits (no silent wrap). */
unsigned
uint32Value(const JsonValue &v, const std::string &context,
            const char *what)
{
    std::uint64_t value = uintValue(v, context, what);
    if (value > 0xffffffffull)
        specFail(context, csprintf("%s is out of range: %llu", what,
                                   (unsigned long long)value));
    return static_cast<unsigned>(value);
}

const std::string &
stringValue(const JsonValue &v, const std::string &context,
            const char *what)
{
    if (!v.isString())
        specFail(context, csprintf("%s must be a string, found %s",
                                   what, v.kindName()));
    return v.asString();
}

/** A scalar spec value, or each element of an array value. */
std::vector<const JsonValue *>
scalarOrArray(const JsonValue &v)
{
    std::vector<const JsonValue *> out;
    if (v.isArray()) {
        for (const auto &e : v.asArray())
            out.push_back(&e);
    } else {
        out.push_back(&v);
    }
    return out;
}

std::string
knownWorkloadNames()
{
    std::string names;
    for (const auto &w : table2Workloads())
        names += (names.empty() ? "" : ", ") + w.name;
    for (const auto &p : allProfiles())
        names += ", " + p.name;
    return names;
}

/**
 * Check the N.X ranges the core accepts (CoreParams::validate), so
 * --validate rejects what a run would abort on.
 */
std::pair<unsigned, unsigned>
checkPolicyRange(std::uint64_t n, std::uint64_t x,
                 const std::string &context)
{
    if (n == 0 || n > maxThreads)
        specFail(context,
                 csprintf("policy threads %llu out of range [1, %u]",
                          (unsigned long long)n, maxThreads));
    if (x == 0 || x > 16)
        specFail(context,
                 csprintf("policy width %llu out of range [1, 16]",
                          (unsigned long long)x));
    return {static_cast<unsigned>(n), static_cast<unsigned>(x)};
}

/** Parse "N.X" (e.g. "2.8") or {"threads": N, "width": X}. */
std::pair<unsigned, unsigned>
parsePolicyPoint(const JsonValue &v, const std::string &context)
{
    if (v.isObject()) {
        const JsonValue *n = v.find("threads");
        const JsonValue *x = v.find("width");
        if (n == nullptr || x == nullptr || v.size() != 2)
            specFail(context, "a policy object must have exactly "
                              "the keys \"threads\" and \"width\"");
        return checkPolicyRange(
            uintValue(*n, context, "policy threads"),
            uintValue(*x, context, "policy width"), context);
    }
    const std::string &s = stringValue(v, context, "a policy");
    std::size_t dot = s.find('.');
    bool ok = dot != std::string::npos && dot > 0 &&
              dot + 1 < s.size();
    if (ok) {
        for (std::size_t i = 0; i < s.size(); ++i)
            if (i != dot && (s[i] < '0' || s[i] > '9'))
                ok = false;
    }
    if (!ok || s.size() > 6)
        specFail(context,
                 csprintf("bad policy \"%s\" (expected \"N.X\", "
                          "e.g. \"2.8\")",
                          s.c_str()));
    return checkPolicyRange(
        std::strtoull(s.substr(0, dot).c_str(), nullptr, 10),
        std::strtoull(s.substr(dot + 1).c_str(), nullptr, 10),
        context);
}

/**
 * The value `v` of engine parameter `key` for engine `kind`:
 * SpecError unless the engine's schema declares `key` and `v` is in
 * its range. The oracle and adaptive flags are not parameters: the
 * engine name selects them.
 */
std::uint64_t
engineParamValue(EngineKind kind, const std::string &key,
                 const JsonValue &v, const std::string &context)
{
    const EngineDescriptor &d =
        EngineRegistry::instance().descriptor(kind);
    std::string known;
    for (const EngineParamSpec &p : d.params) {
        if (key != p.key) {
            known += (known.empty() ? "" : ", ") + std::string(p.key);
            continue;
        }
        const std::uint64_t value = uintValue(v, context, p.key);
        if (!p.inRange(value))
            specFail(context,
                     csprintf("engine parameter \"%s\" value %llu out "
                              "of range [%llu, %llu]",
                              key.c_str(), (unsigned long long)value,
                              (unsigned long long)p.minValue,
                              (unsigned long long)p.maxValue));
        return value;
    }
    specFail(context,
             csprintf("unknown override \"%s\" for engine \"%s\" "
                      "(known: ftqEntries, fetchBufferSize, "
                      "robEntries, longLoadPolicy, longLoadThreshold, "
                      "predictorShift, and the engine's parameters "
                      "%s; smtsim --list-engines lists every "
                      "engine's)",
                      key.c_str(), d.name, known.c_str()));
}

} // namespace

std::vector<RunOverrides>
parseOverrides(const JsonValue &obj,
               const std::vector<EngineKind> &engines,
               const std::string &context)
{
    if (!obj.isObject())
        specFail(context,
                 csprintf("\"overrides\" must be an object, found %s",
                          obj.kindName()));

    std::vector<RunOverrides> combos = {RunOverrides{}};
    for (const auto &[key, value] : obj.asObject()) {
        if (value.isArray() && value.size() == 0)
            specFail(context,
                     csprintf("override \"%s\" must not be an "
                              "empty array",
                              key.c_str()));
        std::vector<RunOverrides> next;
        for (const JsonValue *v : scalarOrArray(value)) {
            for (RunOverrides ov : combos) {
                if (key == "ftqEntries") {
                    unsigned n =
                        uint32Value(*v, context, "ftqEntries");
                    if (n == 0)
                        specFail(context, "ftqEntries must be at "
                                          "least 1");
                    ov.ftqEntries = n;
                } else if (key == "fetchBufferSize") {
                    unsigned n =
                        uint32Value(*v, context, "fetchBufferSize");
                    if (n == 0)
                        specFail(context, "fetchBufferSize must be "
                                          "at least 1");
                    ov.fetchBufferSize = n;
                } else if (key == "robEntries") {
                    unsigned n =
                        uint32Value(*v, context, "robEntries");
                    if (n < 8)
                        specFail(context, "robEntries must be at "
                                          "least 8");
                    ov.robEntries = n;
                } else if (key == "longLoadPolicy") {
                    ov.longLoadPolicy = longLoadPolicyFromString(
                        stringValue(*v, context, "longLoadPolicy"));
                } else if (key == "longLoadThreshold") {
                    ov.longLoadThreshold =
                        uintValue(*v, context, "longLoadThreshold");
                } else if (key == "predictorShift") {
                    std::uint64_t shift =
                        uintValue(*v, context, "predictorShift");
                    // Beyond 6 the smallest Table 3 structure
                    // (streamL1Entries = 1024, 4-way) shrinks below
                    // a usable geometry and the run aborts.
                    if (shift > 6)
                        specFail(context, "predictorShift must be "
                                          "at most 6 (larger shifts "
                                          "shrink predictor tables "
                                          "below usable sizes)");
                    ov.predictorShift =
                        static_cast<unsigned>(shift);
                } else {
                    // Any other key is an engine parameter, and every
                    // engine of the block must declare it.
                    std::uint64_t n = 0;
                    for (EngineKind kind : engines)
                        n = engineParamValue(kind, key, *v, context);
                    ov.engineParams.emplace_back(key, n);
                }
                next.push_back(ov);
            }
        }
        combos = std::move(next);
    }
    return combos;
}

namespace
{

SweepBlock
parseSweepBlock(const JsonValue &v, const std::string &context)
{
    if (!v.isObject())
        specFail(context, csprintf("a sweep must be an object, "
                                   "found %s",
                                   v.kindName()));

    SweepBlock block;
    const JsonValue *overrides = nullptr;
    for (const auto &[key, value] : v.asObject()) {
        if (key == "workloads") {
            for (const JsonValue *w : scalarOrArray(value)) {
                std::string name;
                if (w->isObject() && w->find("corpus") != nullptr) {
                    // {"corpus": "manifest.json", "mix": [labels]}:
                    // resolve benchmark labels through a trace-corpus
                    // manifest into per-thread trace paths, verifying
                    // each trace's checksum and header up front.
                    const JsonValue *mix = w->find("mix");
                    if (mix == nullptr || w->size() != 2)
                        specFail(context,
                                 "a corpus workload object must "
                                 "have exactly the keys \"corpus\" "
                                 "(a manifest path) and \"mix\" (a "
                                 "benchmark label or an array of "
                                 "per-thread labels)");
                    const std::string &manifest_path = stringValue(
                        *w->find("corpus"), context,
                        "a corpus manifest path");
                    try {
                        CorpusManifest manifest =
                            loadCorpusManifest(manifest_path);
                        name = "trace:";
                        bool first = true;
                        for (const JsonValue *l :
                             scalarOrArray(*mix)) {
                            const std::string &label = stringValue(
                                *l, context, "a mix label");
                            const CorpusEntry &entry =
                                manifest.find(label);
                            validateCorpusEntry(manifest, entry);
                            name += (first ? "" : ",") +
                                    entry.resolvedPath;
                            first = false;
                        }
                        if (first)
                            specFail(context,
                                     "\"mix\" must name at least "
                                     "one benchmark label");
                    } catch (const CorpusError &e) {
                        specFail(context, e.what());
                    }
                } else if (w->isObject()) {
                    // {"trace": "path.trc"} or {"trace": [p0, p1]}:
                    // a file-backed replay workload, one thread per
                    // path.
                    const JsonValue *tr = w->find("trace");
                    if (tr == nullptr || w->size() != 1)
                        specFail(context,
                                 "a workload object must have "
                                 "exactly the key \"trace\" (a "
                                 "path or an array of per-thread "
                                 "paths) or the keys \"corpus\" "
                                 "and \"mix\"");
                    name = "trace:";
                    bool first = true;
                    for (const JsonValue *p : scalarOrArray(*tr)) {
                        const std::string &path = stringValue(
                            *p, context, "a trace path");
                        if (path.empty() ||
                            path.find(',') != std::string::npos)
                            specFail(context,
                                     csprintf("bad trace path "
                                              "\"%s\" (must be "
                                              "non-empty, without "
                                              "commas)",
                                              path.c_str()));
                        name += (first ? "" : ",") + path;
                        first = false;
                    }
                    if (first)
                        specFail(context,
                                 "\"trace\" must name at least one "
                                 "path");
                } else {
                    name = stringValue(*w, context, "a workload");
                }
                validateWorkloadName(name);
                block.workloads.push_back(name);
            }
        } else if (key == "engines") {
            for (const JsonValue *e : scalarOrArray(value)) {
                const std::string &name =
                    stringValue(*e, context, "an engine");
                if (lower(name) == "all") {
                    // Every registered engine, zoo included.
                    for (EngineKind k : allEngines())
                        block.engines.push_back(k);
                } else if (lower(name) == "paper") {
                    for (EngineKind k : paperEngines())
                        block.engines.push_back(k);
                } else {
                    block.engines.push_back(
                        engineKindFromString(name));
                }
            }
        } else if (key == "policies") {
            for (const JsonValue *p : scalarOrArray(value))
                block.policies.push_back(
                    parsePolicyPoint(*p, context));
        } else if (key == "selection") {
            block.selections.clear();
            for (const JsonValue *s : scalarOrArray(value))
                block.selections.push_back(policyKindFromString(
                    stringValue(*s, context, "a selection policy")));
        } else if (key == "overrides") {
            // Parsed below, once the block's engines are known.
            overrides = &value;
        } else {
            specFail(context,
                     csprintf("unknown sweep key \"%s\" (known: "
                              "workloads, engines, policies, "
                              "selection, overrides)",
                              key.c_str()));
        }
    }

    if (block.workloads.empty())
        specFail(context, "a sweep needs at least one workload");
    if (block.policies.empty())
        specFail(context, "a sweep needs at least one policy");
    if (block.selections.empty())
        specFail(context, "\"selection\" must not be an empty array");
    if (block.engines.empty()) {
        if (v.find("engines") != nullptr)
            specFail(context,
                     "\"engines\" must not be an empty array");
        // Default stays the paper trio (pre-zoo specs keep their
        // meaning); "all" opts into every registered engine.
        block.engines.assign(paperEngines().begin(),
                             paperEngines().end());
    }
    if (overrides != nullptr)
        block.overrides = parseOverrides(*overrides, block.engines,
                                         context);

    // The fetch buffer must cover the block's widest fetch policy
    // (CoreParams::validate), so --validate catches it up front.
    unsigned max_width = 0;
    for (auto [n, x] : block.policies)
        max_width = std::max(max_width, x);
    for (const auto &ov : block.overrides) {
        if (ov.fetchBufferSize && *ov.fetchBufferSize < max_width)
            specFail(context,
                     csprintf("fetchBufferSize %u is smaller than "
                              "the widest fetch policy (%u)",
                              *ov.fetchBufferSize, max_width));
    }
    return block;
}

PointSelector
parseSelector(const JsonValue &v, const std::string &context,
              const char *side)
{
    if (!v.isObject())
        specFail(context,
                 csprintf("\"%s\" must be a selector object with any "
                          "of the keys workload, engine, policy "
                          "(\"rhs\" may also be a number), found %s",
                          side, v.kindName()));
    PointSelector sel;
    for (const auto &[key, value] : v.asObject()) {
        if (key == "workload") {
            sel.workload = stringValue(value, context, "a workload");
        } else if (key == "engine") {
            try {
                sel.engine = engineKindFromString(
                    stringValue(value, context, "an engine"));
            } catch (const SpecError &e) {
                specFail(context, e.what());
            }
        } else if (key == "policy") {
            sel.policy = parsePolicyPoint(value, context);
        } else {
            specFail(context,
                     csprintf("unknown %s selector key \"%s\" (known: "
                              "workload, engine, policy)",
                              side, key.c_str()));
        }
    }
    return sel;
}

Expectation
parseExpectation(const JsonValue &v, const std::string &context)
{
    if (!v.isObject())
        specFail(context, csprintf("a claim must be an object, found %s",
                                   v.kindName()));
    Expectation e;
    for (const auto &[key, value] : v.asObject()) {
        if (key == "claim") {
            e.claim = stringValue(value, context, "\"claim\"");
        } else if (key == "metric") {
            const std::string &m =
                stringValue(value, context, "\"metric\"");
            if (m != "ipc" && m != "ipfc")
                specFail(context,
                         csprintf("unknown metric \"%s\" (known: ipc, "
                                  "ipfc)",
                                  m.c_str()));
            e.ipfc = m == "ipfc";
        } else if (key == "lhs") {
            e.lhs = parseSelector(value, context, "lhs");
        } else if (key == "op") {
            e.op = stringValue(value, context, "\"op\"");
            if (e.op != "<" && e.op != "<=" && e.op != ">" &&
                e.op != ">=")
                specFail(context,
                         csprintf("bad op \"%s\" (known: <, <=, >, >=)",
                                  e.op.c_str()));
        } else if (key == "rhs") {
            if (value.isNumber())
                e.rhsValue = value.asNumber();
            else
                e.rhs = parseSelector(value, context, "rhs");
        } else if (key == "factor") {
            if (!value.isNumber() || !(value.asNumber() > 0))
                specFail(context, "\"factor\" must be a positive number");
            e.factor = value.asNumber();
        } else if (key == "atLeast") {
            e.atLeast = uintValue(value, context, "\"atLeast\"");
        } else if (key == "expectedToFail") {
            e.expectedToFail =
                stringValue(value, context, "\"expectedToFail\"");
            if (e.expectedToFail.empty())
                specFail(context, "\"expectedToFail\" must say why the "
                                  "claim fails");
        } else {
            specFail(context,
                     csprintf("unknown claim key \"%s\" (known: claim, "
                              "metric, lhs, op, rhs, factor, atLeast, "
                              "expectedToFail)",
                              key.c_str()));
        }
    }
    for (const char *key : {"claim", "metric", "lhs", "op", "rhs"})
        if (v.find(key) == nullptr)
            specFail(context, csprintf("a claim needs \"%s\"", key));
    return e;
}

/** Does a grid point (or a result) lie in a selector's set? */
template <typename Point>
bool
selects(const PointSelector &s, const Point &p)
{
    return (!s.workload || *s.workload == p.workload) &&
           (!s.engine || *s.engine == p.engine) &&
           (!s.policy || (s.policy->first == p.fetchThreads &&
                          s.policy->second == p.fetchWidth));
}

template <typename Point>
std::string
pointName(const Point &p)
{
    std::string name =
        csprintf("%s/%s/%u.%u", p.workload.c_str(),
                 engineName(p.engine), p.fetchThreads, p.fetchWidth);
    std::string ov = p.overrides.describe();
    return ov.empty() ? name : name + "/" + ov;
}

/**
 * A claim's (lhs, rhs) point pairs, lhs in grid order. A numeric rhs
 * pairs each lhs point with itself. SpecError when a selector
 * matches nothing or an lhs point lacks exactly one rhs partner.
 */
template <typename Point>
std::vector<std::pair<const Point *, const Point *>>
claimPairs(const Expectation &e, const std::vector<Point> &points,
           const std::string &context)
{
    auto fixed = [&](auto field) {
        return (e.lhs.*field).has_value() ||
               (!e.rhsValue && (e.rhs.*field).has_value());
    };
    bool wl = fixed(&PointSelector::workload);
    bool eng = fixed(&PointSelector::engine);
    bool pol = fixed(&PointSelector::policy);

    std::vector<std::pair<const Point *, const Point *>> pairs;
    bool rhs_matched = false;
    for (const Point &l : points) {
        if (!selects(e.lhs, l))
            continue;
        const Point *partner = e.rhsValue ? &l : nullptr;
        std::size_t partners = 0;
        for (const Point &r : points) {
            if (e.rhsValue || !selects(e.rhs, r))
                continue;
            rhs_matched = true;
            if ((wl || r.workload == l.workload) &&
                (eng || r.engine == l.engine) &&
                (pol || (r.fetchThreads == l.fetchThreads &&
                         r.fetchWidth == l.fetchWidth)) &&
                r.policy == l.policy && r.overrides == l.overrides) {
                partner = &r;
                ++partners;
            }
        }
        if (!e.rhsValue && rhs_matched && partners != 1)
            specFail(context,
                     csprintf("lhs point %s has %zu rhs partners, "
                              "expected exactly one (a partner agrees "
                              "on every coordinate neither selector "
                              "fixes)",
                              pointName(l).c_str(), partners));
        pairs.emplace_back(&l, partner);
    }
    if (pairs.empty())
        specFail(context, "the lhs selector matches no grid point");
    if (!e.rhsValue && !rhs_matched)
        specFail(context, "the rhs selector matches no grid point");
    if (e.atLeast && *e.atLeast > pairs.size())
        specFail(context,
                 csprintf("atLeast %zu exceeds the %zu point pairs the "
                          "claim compares",
                          *e.atLeast, pairs.size()));
    return pairs;
}

/** Error context naming one claim of a spec. */
std::string
claimContext(const std::string &context, std::size_t i,
             const std::string &claim)
{
    return csprintf("%s: expect[%zu]%s", context.c_str(), i,
                    claim.empty() ? ""
                                  : (" (\"" + claim + "\")").c_str());
}

} // namespace

EngineKind
engineKindFromString(const std::string &name)
{
    const EngineDescriptor *d = EngineRegistry::instance().find(name);
    if (d == nullptr)
        throw SpecError(
            csprintf("unknown fetch engine \"%s\" (known: %s, "
                     "paper, all)",
                     name.c_str(),
                     EngineRegistry::instance().knownNames().c_str()));
    return d->kind;
}

PolicyKind
policyKindFromString(const std::string &name)
{
    std::string n = lower(name);
    if (n == "icount")
        return PolicyKind::ICount;
    if (n == "rr" || n == "round-robin" || n == "roundrobin")
        return PolicyKind::RoundRobin;
    throw SpecError(csprintf("unknown selection policy \"%s\" "
                             "(known: icount, round-robin)",
                             name.c_str()));
}

LongLoadPolicy
longLoadPolicyFromString(const std::string &name)
{
    std::string n = lower(name);
    if (n == "none")
        return LongLoadPolicy::None;
    if (n == "stall")
        return LongLoadPolicy::Stall;
    if (n == "flush")
        return LongLoadPolicy::Flush;
    throw SpecError(csprintf("unknown long-load policy \"%s\" "
                             "(known: none, stall, flush)",
                             name.c_str()));
}

std::string
defaultConfigDir()
{
    const char *env = std::getenv("SMTFETCH_CONFIG_DIR");
    if (env != nullptr && env[0] != '\0')
        return env;
#ifdef SMTFETCH_CONFIG_DIR
    return SMTFETCH_CONFIG_DIR;
#else
    return "configs";
#endif
}

void
validateWorkloadName(const std::string &name)
{
    for (const auto &w : table2Workloads())
        if (w.name == name)
            return;
    for (const auto &p : allProfiles())
        if (p.name == name)
            return;
    if (isTraceWorkloadName(name)) {
        // Syntax-only here: the files themselves are opened at run
        // time, so a spec can be validated before its traces are
        // recorded.
        std::string paths = name.substr(6);
        if (paths.empty() || paths.front() == ',' ||
            paths.back() == ',' ||
            paths.find(",,") != std::string::npos)
            throw SpecError(csprintf(
                "bad trace workload \"%s\" (expected "
                "\"trace:<path>[,<path>...]\" with non-empty "
                "paths)",
                name.c_str()));
        return;
    }
    throw SpecError(csprintf("unknown workload \"%s\" (known: %s, "
                             "or \"trace:<path>[,<path>...]\")",
                             name.c_str(),
                             knownWorkloadNames().c_str()));
}

std::vector<GridPoint>
SweepSpec::expand() const
{
    std::vector<GridPoint> points;
    for (const auto &block : sweeps)
        for (const auto &w : block.workloads)
            for (EngineKind e : block.engines)
                for (auto [n, x] : block.policies)
                    for (PolicyKind sel : block.selections)
                        for (const auto &ov : block.overrides)
                            points.push_back({w, e, n, x, sel, ov});
    return points;
}

SweepRequest
SweepSpec::makeRequest() const
{
    SweepRequest request;
    request.points = expand();
    request.warmupCycles = warmupCycles;
    request.measureCycles = measureCycles;
    request.seed = seed;
    request.cycleSkip = cycleSkip;
    request.checkpointDir = checkpointDir;
    return request;
}

std::vector<ClaimVerdict>
SweepSpec::checkClaims(const std::vector<ExperimentResult> &results) const
{
    std::vector<ClaimVerdict> verdicts;
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const Expectation &e = expect[i];
        auto pairs =
            claimPairs(e, results, claimContext(name, i, e.claim));
        ClaimVerdict v{e.claim, 0, pairs.size(),
                       e.atLeast.value_or(pairs.size()),
                       e.expectedToFail};
        auto metric = [&](const ExperimentResult *r) {
            return e.ipfc ? r->ipfc : r->ipc;
        };
        for (const auto &[l, r] : pairs) {
            double lhs = metric(l);
            double rhs = e.factor * (e.rhsValue ? *e.rhsValue : metric(r));
            bool holds = e.op == "<"    ? lhs < rhs
                         : e.op == "<=" ? lhs <= rhs
                         : e.op == ">"  ? lhs > rhs
                                        : lhs >= rhs;
            v.holds += holds ? 1 : 0;
        }
        verdicts.push_back(std::move(v));
    }
    return verdicts;
}

SweepSpec
SweepSpec::fromJson(const JsonValue &doc, const std::string &context)
{
    if (!doc.isObject())
        specFail(context,
                 csprintf("a spec must be a JSON object, found %s",
                          doc.kindName()));

    SweepSpec spec;
    const JsonValue *sweeps = nullptr;
    const JsonValue *expect = nullptr;
    JsonValue::Object inline_sweep;

    for (const auto &[key, value] : doc.asObject()) {
        if (key == "name") {
            spec.name = stringValue(value, context, "\"name\"");
        } else if (key == "type") {
            const std::string &t =
                stringValue(value, context, "\"type\"");
            if (lower(t) == "grid")
                spec.type = SpecType::Grid;
            else if (lower(t) == "characteristics")
                spec.type = SpecType::Characteristics;
            else
                specFail(context,
                         csprintf("unknown spec type \"%s\" (known: "
                                  "grid, characteristics)",
                                  t.c_str()));
        } else if (key == "warmupCycles") {
            spec.warmupCycles =
                uintValue(value, context, "warmupCycles");
        } else if (key == "measureCycles") {
            spec.measureCycles =
                uintValue(value, context, "measureCycles");
        } else if (key == "seed") {
            spec.seed = uintValue(value, context, "seed");
        } else if (key == "output") {
            spec.output = stringValue(value, context, "\"output\"");
        } else if (key == "checkpointAfterWarmup") {
            specFail(context,
                     "\"checkpointAfterWarmup\" was removed: warmup "
                     "sharing now always persists its snapshots — "
                     "delete the key and run smtsim --checkpoint-dir "
                     "DIR (or set \"checkpointDir\")");
        } else if (key == "cycleSkip") {
            if (!value.isBool())
                specFail(context,
                         csprintf("cycleSkip must be a boolean, "
                                  "found %s",
                                  value.kindName()));
            spec.cycleSkip = value.asBool();
        } else if (key == "checkpointDir") {
            spec.checkpointDir =
                stringValue(value, context, "\"checkpointDir\"");
            if (spec.checkpointDir.empty())
                specFail(context,
                         "checkpointDir must not be empty (omit the "
                         "key to run without warmup sharing)");
        } else if (key == "instructions") {
            spec.instructions =
                uintValue(value, context, "instructions");
        } else if (key == "sweeps") {
            sweeps = &value;
        } else if (key == "expect") {
            expect = &value;
        } else if (key == "workloads" || key == "engines" ||
                   key == "policies" || key == "selection" ||
                   key == "overrides") {
            inline_sweep.emplace_back(key, value);
        } else {
            specFail(context,
                     csprintf("unknown spec key \"%s\" (known: "
                              "name, type, warmupCycles, "
                              "measureCycles, seed, output, "
                              "checkpointDir, "
                              "cycleSkip, instructions, "
                              "sweeps, workloads, engines, policies, "
                              "selection, overrides, expect)",
                              key.c_str()));
        }
    }

    if (spec.name.empty())
        specFail(context, "a spec needs a non-empty \"name\"");
    if (spec.measureCycles == 0)
        specFail(context, "measureCycles must be positive");

    if (sweeps != nullptr && !inline_sweep.empty())
        specFail(context, "give either top-level "
                          "workloads/engines/policies or a "
                          "\"sweeps\" array, not both");

    if (sweeps != nullptr) {
        if (!sweeps->isArray() || sweeps->size() == 0)
            specFail(context, "\"sweeps\" must be a non-empty array "
                              "of sweep objects");
        for (const auto &s : sweeps->asArray())
            spec.sweeps.push_back(parseSweepBlock(s, context));
    } else if (!inline_sweep.empty()) {
        spec.sweeps.push_back(parseSweepBlock(
            JsonValue(std::move(inline_sweep)), context));
    }

    if (spec.type == SpecType::Grid && spec.sweeps.empty())
        specFail(context, "a grid spec needs workloads/policies "
                          "(top-level or in \"sweeps\")");
    if (spec.type == SpecType::Characteristics &&
        !spec.sweeps.empty())
        specFail(context,
                 "a characteristics spec takes no sweeps");
    if (spec.type == SpecType::Characteristics &&
        spec.instructions == 0)
        specFail(context, "instructions must be positive");

    if (expect != nullptr) {
        if (!expect->isArray())
            specFail(context, "\"expect\" must be an array of claim "
                              "objects");
        if (spec.type != SpecType::Grid)
            specFail(context, "a characteristics spec takes no "
                              "\"expect\" claims");
        // Pair every claim against the expanded grid now, so
        // --validate rejects a claim that could never be evaluated.
        std::vector<GridPoint> points = spec.expand();
        for (std::size_t i = 0; i < expect->size(); ++i) {
            const JsonValue &c = expect->asArray()[i];
            const JsonValue *text =
                c.isObject() ? c.find("claim") : nullptr;
            std::string ctx = claimContext(
                context, i,
                text != nullptr && text->isString() ? text->asString()
                                                    : "");
            Expectation e = parseExpectation(c, ctx);
            claimPairs(e, points, ctx);
            spec.expect.push_back(std::move(e));
        }
    }
    return spec;
}

SweepSpec
SweepSpec::fromString(const std::string &text,
                      const std::string &context)
{
    try {
        return fromJson(jsonParse(text), context);
    } catch (const JsonParseError &e) {
        throw SpecError(context + ": " + e.what());
    }
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SpecError(csprintf("cannot open spec file %s",
                                 path.c_str()));
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return fromString(text, path);
}

SweepReport
runSpec(const SweepSpec &spec)
{
    if (spec.type != SpecType::Grid)
        throw SpecError(csprintf("spec \"%s\" is not a grid spec",
                                 spec.name.c_str()));
    return ExperimentRunner().run(spec.makeRequest());
}

std::vector<BenchmarkCharacteristics>
runCharacteristics(std::uint64_t instructions)
{
    std::vector<BenchmarkCharacteristics> rows;
    for (const auto &prof : allProfiles()) {
        auto img = buildImage(prof, 0x400000, 0x40000000);
        SyntheticTraceStream ts(img);
        for (std::uint64_t i = 0; i < instructions; ++i)
            ts.next();
        const auto &s = ts.stats();

        BenchmarkCharacteristics row;
        row.benchmark = prof.name;
        row.ilp = prof.benchClass == BenchClass::ILP;
        row.paperBlockSize = prof.avgBlockSize;
        row.blockSize = s.avgBlockSize();
        row.streamLength = s.avgStreamLength();
        row.takenRate =
            s.ctis ? double(s.takenCtis) / double(s.ctis) : 0;
        row.loadFraction = double(s.loads) / double(s.insts);
        rows.push_back(row);
    }
    return rows;
}

std::vector<std::pair<std::string, double>>
characteristicsMetrics(const std::vector<BenchmarkCharacteristics> &rows)
{
    std::vector<std::pair<std::string, double>> metrics;
    for (const auto &r : rows) {
        metrics.emplace_back(r.benchmark + ".bbSize", r.blockSize);
        metrics.emplace_back(r.benchmark + ".streamLen",
                             r.streamLength);
        metrics.emplace_back(r.benchmark + ".takenRate",
                             r.takenRate);
        metrics.emplace_back(r.benchmark + ".loadFrac",
                             r.loadFraction);
    }
    return metrics;
}

std::string
benchRecordDir(const std::string &dir_override)
{
    return dir_override.empty() ? "." : dir_override;
}

void
ensureWritableDir(const std::string &dir)
{
    std::string probe =
        dir + "/.smtfetch_write_probe_" + std::to_string(
#ifdef _WIN32
                                              0
#else
                                              ::getpid()
#endif
        );
    {
        std::ofstream os(probe);
        if (!os || !(os << "probe"))
            throw SpecError(csprintf(
                "output directory \"%s\" is not writable (cannot "
                "create files in it) — create the directory or "
                "pass a writable one",
                dir.c_str()));
    }
    std::remove(probe.c_str());
}

bool
writeBenchRecord(
    const std::string &bench,
    const std::vector<ExperimentResult> &results,
    const std::vector<std::pair<std::string, double>> &metrics,
    const std::string &dir_override,
    const SweepTiming *timing, const std::vector<ClaimVerdict> *claims)
{
    std::string path =
        benchRecordDir(dir_override) + "/BENCH_" + bench + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return false;
    }
    ExperimentRunner::writeJson(os, bench, results, metrics, timing,
                                claims);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace smt
