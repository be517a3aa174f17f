/**
 * @file
 * smtsim: run JSON experiment specs through the simulator. Each spec
 * names workloads, fetch engines, N.X policies, parameter overrides
 * and measurement windows; smtsim expands the grid, runs it across
 * host threads, checks the spec's "expect" claims and writes the
 * BENCH_<name>.json record.
 *
 * Exit codes: 0 success, 1 usage error, 2 bad spec or input file,
 * 3 unwritable record, 4 a paper claim failed.
 *
 * Usage: smtsim [options] <spec.json | spec-name> ...
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpred/engine_registry.hh"
#include "sim/journal.hh"
#include "sim/scheduler.hh"
#include "sim/simulator.hh"
#include "sim/sweep_spec.hh"
#include "util/flag_value.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/trace_file.hh"

using namespace smt;

namespace
{

struct Options
{
    bool list = false;
    bool listEngines = false;
    bool validate = false;
    bool quiet = false;
    bool writeJson = true;
    std::string outDir;
    std::string recordPath;
    std::optional<Cycle> recordPad;
    std::string checkpointDir;
    bool noCycleSkip = false;
    std::optional<Cycle> warmup;
    std::optional<Cycle> measure;
    std::optional<std::uint64_t> seed;
    std::vector<std::string> specs;
};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: smtsim [options] <spec.json | spec-name> ...\n"
        "\n"
        "Runs JSON experiment specs (see configs/) through the\n"
        "simulator and writes BENCH_<name>.json records. A spec's\n"
        "\"expect\" claims are checked when the run keeps the spec's\n"
        "warmup, measure and seed; a failing claim exits 4.\n"
        "\n"
        "A bare spec name (no '/' and no '.json') is resolved\n"
        "against $SMTFETCH_CONFIG_DIR or the build-time configs/\n"
        "directory.\n"
        "\n"
        "options:\n"
        "  --list         print the expanded grid, do not run\n"
        "  --list-engines print every registered fetch engine with\n"
        "                 its description and parameter defaults,\n"
        "                 then exit (with --quiet: bare names only,\n"
        "                 one per line, for scripting)\n"
        "  --validate     parse and expand specs, then exit\n"
        "  --out-dir DIR  directory for BENCH_*.json records\n"
        "                 (default: .)\n"
        "  --no-json      skip BENCH_*.json emission\n"
        "  --quiet        suppress result tables\n"
        "  --warmup N     override the spec's warmup cycles\n"
        "  --measure N    override the spec's measured cycles\n"
        "  --seed N       override the spec's seed\n"
        "  --record PATH  capture the run's correct-path streams to\n"
        "                 a trace file (the spec must expand to one\n"
        "                 grid point; multithread workloads write\n"
        "                 one PATH-derived file per thread). Replay\n"
        "                 with a {\"trace\": PATH} workload.\n"
        "  --record-pad N capture N extra post-measurement cycles\n"
        "                 of records as a replay safety margin\n"
        "  --checkpoint-dir DIR\n"
        "                 run each unique warmup once and restore\n"
        "                 its snapshot for the other grid points\n"
        "                 (bit-identical), persisting snapshots in\n"
        "                 DIR for reuse across sweeps; also journal\n"
        "                 every finished point to\n"
        "                 DIR/journal_<name>.jsonl so a killed run\n"
        "                 resumes where it stopped\n"
        "  --no-cycle-skip\n"
        "                 tick every cycle instead of fast-\n"
        "                 forwarding over quiescent spans (debug\n"
        "                 escape hatch; results are bit-identical\n"
        "                 either way, only slower)\n"
        "  -h, --help     show this help\n");
}

/**
 * Print every registered fetch engine. The quiet form emits bare
 * canonical names, one per line, for scripts (the checkpoint gate in
 * tests/cli_gates.py iterates `smtsim --list-engines --quiet`).
 */
void
listEngines(bool quiet)
{
    const EngineRegistry &reg = EngineRegistry::instance();
    if (quiet) {
        for (const EngineDescriptor &d : reg.all())
            std::printf("%s\n", d.name);
        return;
    }
    const EngineParams defaults{};
    for (const EngineDescriptor &d : reg.all()) {
        std::printf("%s\n    %s\n", d.name, d.description);
        if (!d.aliases.empty()) {
            std::string aliases;
            for (const std::string &a : d.aliases)
                aliases += (aliases.empty() ? "" : ", ") + a;
            std::printf("    aliases: %s\n", aliases.c_str());
        }
        for (const EngineParamSpec &p : d.params)
            std::printf("    %s=%llu  [%llu..%llu]  %s\n", p.key,
                        (unsigned long long)p.get(defaults),
                        (unsigned long long)p.minValue,
                        (unsigned long long)p.maxValue, p.help);
        std::printf("\n");
    }
}

/** Resolve a CLI spec argument to a readable file path. */
std::string
resolveSpecPath(const std::string &arg)
{
    bool bare = arg.find('/') == std::string::npos &&
                arg.find(".json") == std::string::npos;
    if (!bare)
        return arg;
    if (std::ifstream(arg).good())
        return arg;
    return defaultConfigDir() + "/" + arg + ".json";
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    try {
        return parseFlagValue(flag, text);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "smtsim: %s\n", e.what());
        std::exit(1);
    }
}

void
printGrid(const SweepSpec &spec,
          const std::vector<GridPoint> &points)
{
    TextTable t({"#", "workload", "engine", "policy", "selection",
                 "overrides"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        std::string variant = p.overrides.describe();
        t.addRow({std::to_string(i), p.workload,
                  engineName(p.engine),
                  csprintf("%u.%u", p.fetchThreads, p.fetchWidth),
                  policyName(p.policy),
                  variant.empty() ? "-" : variant});
    }
    t.print(std::cout,
            csprintf("%s: %zu grid points, warmup %llu, measure "
                     "%llu, seed %llu",
                     spec.name.c_str(), points.size(),
                     (unsigned long long)spec.warmupCycles,
                     (unsigned long long)spec.measureCycles,
                     (unsigned long long)spec.seed));
}

/**
 * Print one verdict line per claim, failures on stderr. Returns
 * false when a claim not marked expectedToFail fails.
 */
bool
reportClaims(const std::vector<ClaimVerdict> &verdicts)
{
    bool ok = true;
    for (const ClaimVerdict &v : verdicts) {
        bool xfail = !v.pass() && !v.expectedToFail.empty();
        bool fail = !v.pass() && !xfail;
        std::fflush(stdout);
        std::fprintf(fail ? stderr : stdout,
                     "claim %s: %s (%zu of %zu, need %zu)%s%s\n",
                     v.pass() ? "PASS" : xfail ? "XFAIL" : "FAIL",
                     v.claim.c_str(), v.holds, v.of, v.required,
                     xfail ? "; expected to fail: " : "",
                     xfail ? v.expectedToFail.c_str() : "");
        ok = ok && !fail;
    }
    return ok;
}

int
runOne(const Options &opt, const std::string &arg)
{
    std::string path = resolveSpecPath(arg);
    SweepSpec spec = SweepSpec::fromFile(path);
    // The claims describe the spec's own windows and seed.
    bool at_spec_windows =
        (!opt.warmup || *opt.warmup == spec.warmupCycles) &&
        (!opt.measure || *opt.measure == spec.measureCycles) &&
        (!opt.seed || *opt.seed == spec.seed);
    if (!at_spec_windows && !spec.expect.empty() && !opt.list &&
        !opt.validate)
        std::printf("%s: %zu claims not checked: they hold at the "
                    "spec's warmup %llu, measure %llu and seed %llu, "
                    "which this run overrides\n",
                    spec.name.c_str(), spec.expect.size(),
                    (unsigned long long)spec.warmupCycles,
                    (unsigned long long)spec.measureCycles,
                    (unsigned long long)spec.seed);
    if (opt.warmup)
        spec.warmupCycles = *opt.warmup;
    if (opt.measure)
        spec.measureCycles = *opt.measure;
    if (opt.seed)
        spec.seed = *opt.seed;
    if (opt.noCycleSkip)
        spec.cycleSkip = false;
    if (spec.measureCycles == 0) {
        std::fprintf(stderr,
                     "smtsim: --measure must be positive\n");
        return 1;
    }

    // Fail fast on an unwritable output directory: a typo'd
    // --out-dir should not cost a full grid run before erroring.
    if (opt.writeJson && !opt.list && !opt.validate)
        ensureWritableDir(benchRecordDir(opt.outDir));

    if (spec.type == SpecType::Characteristics) {
        if (!opt.recordPath.empty()) {
            std::fprintf(stderr,
                         "smtsim: --record does not apply to a "
                         "characteristics spec (\"%s\" runs no "
                         "simulation)\n",
                         spec.name.c_str());
            return 1;
        }
        if (opt.list || opt.validate) {
            std::printf("%s: characteristics spec (%llu insts per "
                        "benchmark)\n",
                        spec.name.c_str(),
                        (unsigned long long)spec.instructions);
            return 0;
        }
        auto rows = runCharacteristics(spec.instructions);
        if (!opt.quiet) {
            TextTable t({"benchmark", "class", "BB size (paper)",
                         "BB size (model)", "stream len", "taken rate",
                         "loads/insts"});
            for (const auto &r : rows)
                t.addRow({r.benchmark, r.ilp ? "ILP" : "MEM",
                          TextTable::num(r.paperBlockSize),
                          TextTable::num(r.blockSize),
                          TextTable::num(r.streamLength),
                          TextTable::num(r.takenRate, 3),
                          TextTable::num(r.loadFraction, 3)});
            t.print(std::cout, spec.name);
        }
        if (opt.writeJson &&
            !writeBenchRecord(spec.benchName(), {},
                              characteristicsMetrics(rows),
                              opt.outDir))
            return 3;
        return 0;
    }

    auto points = spec.expand();
    if (opt.list || opt.validate) {
        if (opt.list)
            printGrid(spec, points);
        else
            std::printf("%s: OK (%zu grid points)\n",
                        spec.name.c_str(), points.size());
        return 0;
    }

    if (!opt.recordPath.empty()) {
        if (points.size() != 1) {
            std::fprintf(stderr,
                         "smtsim: --record needs a spec that expands "
                         "to exactly one grid point, but \"%s\" "
                         "expands to %zu — narrow the spec or record "
                         "each point separately\n",
                         spec.name.c_str(), points.size());
            return 1;
        }
        points[0].recordPath = opt.recordPath;
        points[0].recordPadCycles = opt.recordPad.value_or(0);
    }

    SweepRequest request = spec.makeRequest();
    request.points = std::move(points);
    if (!opt.checkpointDir.empty())
        request.checkpointDir = opt.checkpointDir;
    // A typo'd snapshot directory should fail in milliseconds, not
    // after the first warmup finishes.
    if (!request.checkpointDir.empty())
        ensureWritableDir(request.checkpointDir);

    // A checkpoint directory also makes the sweep resumable: every
    // finished point is journaled there, and a re-run skips the
    // points an earlier (killed) run already journaled. Runs that
    // write a trace file are not journaled — skipping their point
    // would skip the file.
    SweepSubmitOptions submit;
    if (!request.checkpointDir.empty() && opt.recordPath.empty()) {
        submit.journal = std::make_shared<SweepJournal>(
            request.checkpointDir, spec.benchName(), request);
        submit.precompleted = submit.journal->completed();
        if (!submit.precompleted.empty()) {
            std::printf("resuming %s: %zu of %zu points already "
                        "journaled in %s\n",
                        spec.benchName().c_str(),
                        submit.precompleted.size(),
                        request.points.size(),
                        request.checkpointDir.c_str());
            std::fflush(stdout);
        }
    }

    SweepReport report =
        ExperimentRunner().run(request, std::move(submit));
    const auto &results = report.results;
    const auto &points_run = request.points;
    if (!opt.recordPath.empty() && !opt.quiet) {
        // Name the files actually written (multithread runs get
        // per-thread suffixes).
        unsigned threads = static_cast<unsigned>(
            table3Config(points_run[0].workload, points_run[0].engine,
                         points_run[0].fetchThreads,
                         points_run[0].fetchWidth)
                .workload.benchmarks.size());
        std::string files;
        for (unsigned t = 0; t < threads; ++t)
            files += (t == 0 ? "" : ", ") +
                     Simulator::recordPathFor(
                         opt.recordPath, static_cast<ThreadID>(t),
                         threads);
        std::printf("recorded trace to %s\n", files.c_str());
    }
    if (!opt.quiet) {
        ExperimentRunner::printFigure(
            std::cout, spec.name + " — fetch throughput, IPFC",
            results, /*fetch=*/true);
        std::cout << '\n';
        ExperimentRunner::printFigure(
            std::cout, spec.name + " — commit throughput, IPC",
            results, /*fetch=*/false);
    }
    std::optional<std::vector<ClaimVerdict>> claims;
    if (at_spec_windows && !spec.expect.empty())
        claims = spec.checkClaims(results);
    bool claims_ok = !claims || reportClaims(*claims);
    if (opt.writeJson &&
        !writeBenchRecord(spec.benchName(), results, {}, opt.outDir,
                          &report.timing, claims ? &*claims : nullptr))
        return 3;
    return claims_ok ? 0 : 4;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "smtsim: %s expects an argument\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--list-engines") {
            opt.listEngines = true;
        } else if (arg == "--validate") {
            opt.validate = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--no-json") {
            opt.writeJson = false;
        } else if (arg == "--out-dir") {
            opt.outDir = next();
        } else if (arg == "--warmup") {
            opt.warmup = parseCount("--warmup", next());
        } else if (arg == "--measure") {
            opt.measure = parseCount("--measure", next());
        } else if (arg == "--seed") {
            opt.seed = parseCount("--seed", next());
        } else if (arg == "--record") {
            opt.recordPath = next();
        } else if (arg == "--record-pad") {
            opt.recordPad = parseCount("--record-pad", next());
        } else if (arg == "--checkpoint-dir") {
            opt.checkpointDir = next();
        } else if (arg == "--no-cycle-skip") {
            opt.noCycleSkip = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "smtsim: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 1;
        } else {
            opt.specs.push_back(arg);
        }
    }

    if (opt.listEngines) {
        listEngines(opt.quiet);
        return 0;
    }

    if (opt.specs.empty()) {
        usage(stderr);
        return 1;
    }

    if (opt.recordPad && opt.recordPath.empty()) {
        std::fprintf(stderr, "smtsim: --record-pad pads a --record "
                             "capture; pass --record PATH too\n");
        return 1;
    }

    // --record applies once per spec run: with several specs each
    // run would silently overwrite the previous spec's file.
    if (opt.specs.size() > 1 && !opt.recordPath.empty()) {
        std::fprintf(stderr,
                     "smtsim: --record with %zu specs would make "
                     "each spec overwrite \"%s\" — pass one spec "
                     "per --record invocation (or record each spec "
                     "to a distinct path)\n",
                     opt.specs.size(), opt.recordPath.c_str());
        return 1;
    }

    for (const auto &specArg : opt.specs) {
        try {
            int rc = runOne(opt, specArg);
            if (rc != 0)
                return rc;
        } catch (const SpecError &e) {
            std::fprintf(stderr, "smtsim: %s\n", e.what());
            return 2;
        } catch (const TraceFileError &e) {
            std::fprintf(stderr, "smtsim: %s\n", e.what());
            return 2;
        } catch (const JournalError &e) {
            std::fprintf(stderr, "smtsim: %s\n", e.what());
            return 2;
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "smtsim: %s\n", e.what());
            return 2;
        }
    }
    return 0;
}
