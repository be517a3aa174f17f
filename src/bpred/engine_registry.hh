/**
 * @file
 * Process-wide fetch-engine registry: every engine self-registers a
 * canonical name (plus aliases), a description, a typed parameter
 * schema binding JSON spec keys to EngineParams members, a factory,
 * an optional preset (EngineParams flag flips for the oracle and
 * adaptive modes), and its checkpoint section tag.
 *
 * Everything outside src/bpred — SweepSpec's engine strings and
 * overrides, SimConfig presets, the checkpoint section name, smtsim
 * --list-engines, the registry-parameterized tests — resolves engines
 * through this table instead of switching on EngineKind, so adding an
 * engine means adding one registration function here and nothing
 * elsewhere.
 *
 * Registration is explicit rather than via static registrar objects:
 * the registry constructor calls each engine's registration function
 * in canonical order. (Static registrars in a static library would be
 * dropped by the linker for translation units nothing references, and
 * the EngineKind values double as dense ids, so the order is part of
 * the contract — the registry panics if a registration lands out of
 * order.)
 */

#ifndef SMTFETCH_BPRED_ENGINE_REGISTRY_HH
#define SMTFETCH_BPRED_ENGINE_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bpred/fetch_engine.hh"

namespace smt
{

/**
 * One spec-settable engine parameter: a binding from an override key
 * (as used in JSON sweep specs and on the wire) to an unsigned
 * EngineParams member, with range validation. The oracle and adaptive
 * flags are not parameters: the engine name selects them (preset).
 */
struct EngineParamSpec
{
    const char *key = nullptr;
    const char *help = nullptr;
    unsigned EngineParams::*uintField = nullptr;
    std::uint64_t minValue = 0;
    std::uint64_t maxValue = ~std::uint64_t{0};

    /** Read the bound member. */
    std::uint64_t get(const EngineParams &p) const;

    /** Write the bound member (no range check; see inRange). */
    void set(EngineParams &p, std::uint64_t value) const;

    bool
    inRange(std::uint64_t value) const
    {
        return value >= minValue && value <= maxValue;
    }

    /** Terse spec constructor for registration functions. */
    static EngineParamSpec uintSpec(const char *key, const char *help,
                                    unsigned EngineParams::*field,
                                    std::uint64_t min_value,
                                    std::uint64_t max_value);
};

/** Everything the registry knows about one engine. */
struct EngineDescriptor
{
    EngineKind kind = EngineKind::GshareBtb;

    /** Canonical display name ("gshare+BTB", "tage", ...). */
    const char *name = nullptr;

    const char *description = nullptr;

    /** Checkpoint section tag ("engine.gshare", ...). */
    std::string checkpointTag;

    /** Extra accepted spellings (resolution also normalizes). */
    std::vector<std::string> aliases;

    std::function<std::unique_ptr<FetchEngine>(const EngineParams &)>
        factory;

    /** Parameter-flag flips applied before construction (oracle and
     *  adaptive presets); nullptr for plain engines. */
    void (*preset)(EngineParams &) = nullptr;

    /** Spec-settable parameters relevant to this engine. */
    std::vector<EngineParamSpec> params;
};

/** The singleton registry (built on first use, then immutable). */
class EngineRegistry
{
  public:
    static const EngineRegistry &instance();

    /** Register one engine; enforces dense in-order kind ids and
     *  unique (normalized) names. */
    void add(EngineDescriptor d);

    const EngineDescriptor &descriptor(EngineKind kind) const;

    /**
     * Resolve a user-supplied engine name (canonical, alias, or any
     * case/punctuation variant thereof); nullptr when unknown.
     */
    const EngineDescriptor *find(const std::string &name) const;

    /** Resolve an engine-parameter override key against every
     *  engine's schema; nullptr if no engine declares it. */
    const EngineParamSpec *findParam(const std::string &key) const;

    const std::vector<EngineDescriptor> &all() const
    {
        return engines;
    }

    /** "gshare+BTB, gskew+FTB, stream, tage, ..." for errors. */
    std::string knownNames() const;

  private:
    EngineRegistry();

    std::vector<EngineDescriptor> engines;
};

/** Lower-case a name and strip "+", "_", "-" and spaces. */
std::string normalizeEngineToken(const std::string &name);

/** Apply `kind`'s registry preset (if any) to `params` in place. */
void applyEnginePreset(EngineKind kind, EngineParams &params);

/** Every registered engine, in registry order. */
const std::vector<EngineKind> &allEngines();

/** The three paper engines, in paper order. */
const std::vector<EngineKind> &paperEngines();

/** @name Per-engine registration (called by the registry ctor). */
/// @{
void registerPaperEngines(EngineRegistry &reg);   // fetch_engine.cc
void registerTageEngine(EngineRegistry &reg);     // tage.cc
void registerPresetEngines(EngineRegistry &reg);  // fetch_engine.cc
/// @}

} // namespace smt

#endif // SMTFETCH_BPRED_ENGINE_REGISTRY_HH
