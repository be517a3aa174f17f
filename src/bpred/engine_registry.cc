#include "bpred/engine_registry.hh"

#include <algorithm>
#include <cctype>

#include "util/logging.hh"

namespace smt
{

std::uint64_t
EngineParamSpec::get(const EngineParams &p) const
{
    return p.*uintField;
}

void
EngineParamSpec::set(EngineParams &p, std::uint64_t value) const
{
    p.*uintField = static_cast<unsigned>(value);
}

EngineParamSpec
EngineParamSpec::uintSpec(const char *key, const char *help,
                          unsigned EngineParams::*field,
                          std::uint64_t min_value,
                          std::uint64_t max_value)
{
    EngineParamSpec s;
    s.key = key;
    s.help = help;
    s.uintField = field;
    s.minValue = min_value;
    s.maxValue = max_value;
    return s;
}

std::string
normalizeEngineToken(const std::string &name)
{
    std::string s;
    s.reserve(name.size());
    for (char c : name) {
        if (c == '+' || c == '_' || c == '-' || c == ' ')
            continue;
        s += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
}

EngineRegistry::EngineRegistry()
{
    // Explicit, ordered registration: the EngineKind values are dense
    // ids, so the order here is part of the checkpoint/wire contract.
    registerPaperEngines(*this);
    registerTageEngine(*this);
    registerPresetEngines(*this);
}

const EngineRegistry &
EngineRegistry::instance()
{
    static const EngineRegistry reg;
    return reg;
}

void
EngineRegistry::add(EngineDescriptor d)
{
    if (static_cast<std::size_t>(d.kind) != engines.size())
        panic("engine \"%s\" registered out of order: kind %u at "
              "slot %zu",
              d.name, static_cast<unsigned>(d.kind), engines.size());
    if (d.name == nullptr || !d.factory)
        panic("engine registration %zu lacks a name or factory",
              engines.size());
    std::string token = normalizeEngineToken(d.name);
    for (const EngineDescriptor &e : engines) {
        if (normalizeEngineToken(e.name) == token)
            panic("engine name \"%s\" collides with \"%s\"", d.name,
                  e.name);
    }
    engines.push_back(std::move(d));
}

const EngineDescriptor &
EngineRegistry::descriptor(EngineKind kind) const
{
    std::size_t i = static_cast<std::size_t>(kind);
    if (i >= engines.size())
        panic("engine kind %u is not registered",
              static_cast<unsigned>(kind));
    return engines[i];
}

const EngineDescriptor *
EngineRegistry::find(const std::string &name) const
{
    std::string token = normalizeEngineToken(name);
    for (const EngineDescriptor &e : engines) {
        if (normalizeEngineToken(e.name) == token)
            return &e;
        for (const std::string &alias : e.aliases)
            if (normalizeEngineToken(alias) == token)
                return &e;
    }
    return nullptr;
}

const EngineParamSpec *
EngineRegistry::findParam(const std::string &key) const
{
    for (const EngineDescriptor &e : engines)
        for (const EngineParamSpec &p : e.params)
            if (key == p.key)
                return &p;
    return nullptr;
}

std::string
EngineRegistry::knownNames() const
{
    std::string s;
    for (const EngineDescriptor &e : engines) {
        if (!s.empty())
            s += ", ";
        s += e.name;
    }
    return s;
}

void
applyEnginePreset(EngineKind kind, EngineParams &params)
{
    const EngineDescriptor &d =
        EngineRegistry::instance().descriptor(kind);
    if (d.preset != nullptr)
        d.preset(params);
}

const std::vector<EngineKind> &
allEngines()
{
    static const std::vector<EngineKind> engines = [] {
        std::vector<EngineKind> v;
        for (const EngineDescriptor &e :
             EngineRegistry::instance().all())
            v.push_back(e.kind);
        return v;
    }();
    return engines;
}

const std::vector<EngineKind> &
paperEngines()
{
    static const std::vector<EngineKind> engines = {
        EngineKind::GshareBtb, EngineKind::GskewFtb,
        EngineKind::Stream};
    return engines;
}

} // namespace smt
