#include "sim/journal.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "sim/sweep_spec.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace smt
{

namespace
{

constexpr const char *journalSchema = "smtfetch-journal-v2";

[[noreturn]] void
codecFail(const std::string &what)
{
    throw std::runtime_error("journal entry: " + what);
}

const JsonValue &
member(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    if (v == nullptr)
        codecFail(csprintf("missing \"%s\" member", key));
    return *v;
}

std::uint64_t
u64Member(const JsonValue &doc, const char *key)
{
    const JsonValue &v = member(doc, key);
    if (!v.isNumber())
        codecFail(csprintf("\"%s\" must be a number, found %s", key,
                           v.kindName()));
    return v.asUInt64();
}

double
numMember(const JsonValue &doc, const char *key)
{
    const JsonValue &v = member(doc, key);
    if (!v.isNumber())
        codecFail(csprintf("\"%s\" must be a number, found %s", key,
                           v.kindName()));
    return v.asNumber();
}

std::string
strMember(const JsonValue &doc, const char *key)
{
    const JsonValue &v = member(doc, key);
    if (!v.isString())
        codecFail(csprintf("\"%s\" must be a string, found %s", key,
                           v.kindName()));
    return v.asString();
}

/** A journaled overrides object of `engine`'s result: scalar members
 *  only, decoded and checked by the spec parser. */
RunOverrides
decodeOverrides(const JsonValue &doc, EngineKind engine)
{
    std::vector<RunOverrides> combos =
        parseOverrides(doc, {engine}, "journal entry");
    if (combos.size() != 1)
        codecFail("\"overrides\" members must be single values");
    return combos.front();
}

std::string
headerLine(const std::string &bench, const std::string &request_key,
           std::size_t points)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("schema", journalSchema);
    jw.field("bench", bench);
    jw.field("requestKey", request_key);
    jw.field("points", static_cast<std::uint64_t>(points));
    jw.endObject();
    return os.str();
}

std::string
entryLine(std::size_t index, const ExperimentResult &result)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("point", static_cast<std::uint64_t>(index));
    jw.key("result");
    jw.raw(encodeResult(result));
    jw.endObject();
    return os.str();
}

} // namespace

std::string
encodeResult(const ExperimentResult &r)
{
    std::ostringstream os;
    JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("workload", r.workload);
    jw.field("engine", engineName(r.engine));
    jw.field("policy", policyName(r.policy));
    jw.field("fetchThreads", r.fetchThreads);
    jw.field("fetchWidth", r.fetchWidth);
    if (r.overrides.any()) {
        jw.key("overrides");
        jw.beginObject();
        r.overrides.writeJson(jw);
        jw.endObject();
    }
    jw.field("warmupCycles", r.warmupCycles);
    jw.field("measureCycles", r.measureCycles);
    jw.field("ipfc", r.ipfc);
    jw.field("ipc", r.ipc);
    // As an escaped STRING member, not a nested object: parsing a
    // nested object would funnel 64-bit counters through doubles and
    // corrupt values above 2^53; the string round-trips losslessly.
    jw.field("statsJson", r.statsJson);
    jw.endObject();
    return os.str();
}

ExperimentResult
decodeResult(const JsonValue &doc)
{
    if (!doc.isObject())
        codecFail(csprintf("a result must be an object, found %s",
                           doc.kindName()));
    ExperimentResult r;
    r.workload = strMember(doc, "workload");
    r.engine = engineKindFromString(strMember(doc, "engine"));
    r.policy = policyKindFromString(strMember(doc, "policy"));
    r.fetchThreads =
        static_cast<unsigned>(u64Member(doc, "fetchThreads"));
    r.fetchWidth =
        static_cast<unsigned>(u64Member(doc, "fetchWidth"));
    if (const JsonValue *o = doc.find("overrides"))
        r.overrides = decodeOverrides(*o, r.engine);
    r.warmupCycles = u64Member(doc, "warmupCycles");
    r.measureCycles = u64Member(doc, "measureCycles");
    r.ipfc = numMember(doc, "ipfc");
    r.ipc = numMember(doc, "ipc");
    r.statsJson = strMember(doc, "statsJson");
    return r;
}

std::string
sweepRequestKey(const SweepRequest &request)
{
    std::string s = csprintf(
        "smtfetch-sweep-v1|warmup=%llu|measure=%llu|seed=%llu|"
        "skip=%d|points=%zu",
        (unsigned long long)request.warmupCycles,
        (unsigned long long)request.measureCycles,
        (unsigned long long)request.seed, request.cycleSkip ? 1 : 0,
        request.points.size());
    for (const GridPoint &p : request.points) {
        s += csprintf("|%s/%s/%u.%u/%s", p.workload.c_str(),
                      engineName(p.engine), p.fetchThreads,
                      p.fetchWidth, policyName(p.policy));
        std::string variant = p.overrides.describe();
        if (!variant.empty())
            s += "/" + variant;
        if (!p.recordPath.empty())
            s += "/record=" + p.recordPath;
    }
    return csprintf("%016llx",
                    (unsigned long long)Rng::hashString(s));
}

std::string
SweepJournal::pathFor(const std::string &dir, const std::string &bench)
{
    std::string safe = bench;
    for (char &c : safe)
        if (c == '/' || c == '\\')
            c = '_';
    return dir + "/journal_" + safe + ".jsonl";
}

SweepJournal::SweepJournal(const std::string &dir, std::string bench,
                           const SweepRequest &request)
    : path(pathFor(dir, bench)), bench(std::move(bench)),
      requestKey(sweepRequestKey(request)),
      points(request.points.size())
{
    load();
    rewrite();
}

void
SweepJournal::load()
{
    std::ifstream in(path);
    if (!in)
        return; // nothing to resume

    std::string line;
    if (!std::getline(in, line) || line.empty())
        return; // empty file: treat as fresh

    JsonValue header;
    try {
        header = jsonParse(line);
    } catch (const JsonParseError &e) {
        throw JournalError(csprintf(
            "journal %s has an unreadable header (%s) — delete it "
            "to start over",
            path.c_str(), e.what()));
    }
    const JsonValue *schema = header.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->asString() != journalSchema)
        throw JournalError(csprintf(
            "journal %s is not a %s file — delete it to start over",
            path.c_str(), journalSchema));
    const JsonValue *key = header.find("requestKey");
    if (key == nullptr || !key->isString() ||
        key->asString() != requestKey)
        throw JournalError(csprintf(
            "journal %s was written by a different sweep "
            "(requestKey %s, this request is %s) — the grids, "
            "windows or seed differ; delete %s to start over or "
            "point the checkpoint directory elsewhere",
            path.c_str(),
            key != nullptr && key->isString()
                ? key->asString().c_str()
                : "<missing>",
            requestKey.c_str(), path.c_str()));

    // Entries: keep the first of any duplicate index, tolerate
    // exactly one torn line at the tail.
    std::map<std::size_t, ExperimentResult> seen;
    std::size_t lineno = 1;
    for (;;) {
        std::string text;
        if (!std::getline(in, text))
            break;
        ++lineno;
        if (text.empty())
            continue;
        bool at_tail = in.peek() == std::ifstream::traits_type::eof();
        try {
            JsonValue doc = jsonParse(text);
            std::size_t idx =
                static_cast<std::size_t>(u64Member(doc, "point"));
            if (idx >= points)
                throw JournalError(csprintf(
                    "journal %s line %zu names point %zu of a "
                    "%zu-point grid — the journal belongs to a "
                    "different request; delete it to start over",
                    path.c_str(), lineno, idx, points));
            seen.emplace(idx, decodeResult(member(doc, "result")));
        } catch (const JournalError &) {
            throw;
        } catch (const std::exception &e) {
            if (at_tail) {
                // The sweep died mid-append; the entry never
                // finished, so the point simply reruns.
                warn("journal %s: dropping torn final line %zu",
                     path.c_str(), lineno);
                break;
            }
            throw JournalError(csprintf(
                "journal %s line %zu is corrupt (%s) — delete the "
                "journal to start over",
                path.c_str(), lineno, e.what()));
        }
    }

    entries.reserve(seen.size());
    for (auto &[idx, result] : seen)
        entries.push_back({idx, std::move(result)});
}

void
SweepJournal::rewrite()
{
    // Normalize on open (drop torn tails and duplicates), then
    // append live completions to the rewritten file. Write-then-
    // rename so a kill during the rewrite leaves the old journal.
    unsigned long long pid =
#ifdef _WIN32
        0;
#else
        static_cast<unsigned long long>(::getpid());
#endif
    std::string tmp = path + csprintf(".tmp%llx", pid);
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            throw JournalError(csprintf(
                "cannot write journal %s: %s", tmp.c_str(),
                std::strerror(errno)));
        out << headerLine(bench, requestKey, points) << '\n';
        for (const JournalEntry &e : entries)
            out << entryLine(e.index, e.result) << '\n';
        out.flush();
        if (!out)
            throw JournalError(csprintf(
                "cannot write journal %s: %s", tmp.c_str(),
                std::strerror(errno)));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        std::remove(tmp.c_str());
        throw JournalError(csprintf(
            "cannot move journal into place at %s: %s", path.c_str(),
            std::strerror(err)));
    }
    os.open(path, std::ios::app);
    if (!os)
        throw JournalError(csprintf("cannot append to journal %s: %s",
                                    path.c_str(),
                                    std::strerror(errno)));
}

void
SweepJournal::append(std::size_t index, const ExperimentResult &result)
{
    std::string line = entryLine(index, result);
    std::lock_guard<std::mutex> lock(m);
    os << line << '\n';
    os.flush();
    if (!os)
        warn("journal %s: append failed — the sweep continues but "
             "a resume will recompute this point",
             path.c_str());
}

} // namespace smt
