/**
 * @file
 * smtsim: run JSON experiment specs through the simulator. Each spec
 * names workloads, fetch engines, N.X policies, parameter overrides
 * and measurement windows; smtsim expands the grid, runs it across
 * host threads and writes the BENCH_<name>.json record the bench
 * binaries emit for the same spec.
 *
 * Usage: smtsim [options] <spec.json | spec-name> ...
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bpred/engine_registry.hh"
#include "sim/checkpoint.hh"
#include "sim/journal.hh"
#include "sim/scheduler.hh"
#include "sim/simulator.hh"
#include "sim/sweep_spec.hh"
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
    Cycle recordPad = 0;
    std::string saveCheckpointPath;
    std::string restoreCheckpointPath;
    bool checkpointWarmup = false;
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
        "simulator and writes BENCH_<name>.json records.\n"
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
        "                 (default: $SMTFETCH_JSON_DIR or .)\n"
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
        "  --save-checkpoint PATH\n"
        "                 run the warmup, save the full simulator\n"
        "                 state to PATH, then continue measurement\n"
        "                 (the spec must expand to one grid point)\n"
        "  --restore-checkpoint PATH\n"
        "                 skip the warmup by restoring PATH (saved\n"
        "                 under the identical configuration; the\n"
        "                 spec must expand to one grid point)\n"
        "  --checkpoint-warmup\n"
        "                 run each unique warmup once per sweep and\n"
        "                 restore snapshots for the other grid\n"
        "                 points (bit-identical; also enabled by the\n"
        "                 spec key \"checkpointAfterWarmup\")\n"
        "  --checkpoint-dir DIR\n"
        "                 persist warmup snapshots in DIR and reuse\n"
        "                 them across sweeps (implies\n"
        "                 --checkpoint-warmup); also journal every\n"
        "                 finished point to DIR/journal_<name>.jsonl\n"
        "                 so a killed run resumes where it stopped\n"
        "  --no-cycle-skip\n"
        "                 tick every cycle instead of fast-\n"
        "                 forwarding over quiescent spans (debug\n"
        "                 escape hatch; results are bit-identical\n"
        "                 either way, only slower)\n"
        "  -h, --help     show this help\n");
}

/**
 * Print every registered fetch engine. The quiet form emits bare
 * canonical names, one per line, for shell loops (the CI checkpoint
 * smoke iterates `smtsim --list-engines --quiet`).
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
        for (const EngineParamSpec &p : d.params) {
            // Preset engines report defaults with their preset
            // applied (what a spec naming the engine actually gets).
            EngineParams ep = defaults;
            if (d.preset != nullptr)
                d.preset(ep);
            std::printf("    %s=%llu  [%llu..%llu]  %s\n", p.key,
                        (unsigned long long)p.get(ep),
                        (unsigned long long)p.minValue,
                        (unsigned long long)p.maxValue, p.help);
        }
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
    // Strict digits-only parse: strtoull would silently skip
    // whitespace and wrap negative input.
    bool ok = text[0] != '\0';
    for (const char *p = text; *p != '\0'; ++p)
        if (*p < '0' || *p > '9')
            ok = false;
    char *end = nullptr;
    unsigned long long v = ok ? std::strtoull(text, &end, 10) : 0;
    if (!ok || end == text || *end != '\0') {
        std::fprintf(stderr, "smtsim: %s expects a non-negative "
                             "integer, got \"%s\"\n",
                     flag, text);
        std::exit(1);
    }
    return v;
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

int
runOne(const Options &opt, const std::string &arg)
{
    std::string path = resolveSpecPath(arg);
    SweepSpec spec = SweepSpec::fromFile(path);
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
        if (!opt.recordPath.empty() ||
            !opt.saveCheckpointPath.empty() ||
            !opt.restoreCheckpointPath.empty()) {
            std::fprintf(stderr,
                         "smtsim: --record and checkpoint options "
                         "do not apply to a characteristics spec "
                         "(\"%s\" runs no simulation)\n",
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
            TextTable t({"benchmark", "class", "BB size",
                         "stream len", "taken rate", "loads/insts"});
            for (const auto &r : rows)
                t.addRow({r.benchmark, r.ilp ? "ILP" : "MEM",
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

    auto needsOnePoint = [&](const char *flag) {
        if (points.size() == 1)
            return true;
        std::fprintf(stderr,
                     "smtsim: %s needs a spec that expands to "
                     "exactly one grid point, but \"%s\" expands "
                     "to %zu — narrow the spec or run each point "
                     "separately\n",
                     flag, spec.name.c_str(), points.size());
        return false;
    };
    if (!opt.recordPath.empty()) {
        if (!needsOnePoint("--record"))
            return 1;
        points[0].recordPath = opt.recordPath;
        points[0].recordPadCycles = opt.recordPad;
    }
    if (!opt.saveCheckpointPath.empty()) {
        if (!needsOnePoint("--save-checkpoint"))
            return 1;
        points[0].saveCheckpointPath = opt.saveCheckpointPath;
    }
    if (!opt.restoreCheckpointPath.empty()) {
        if (!needsOnePoint("--restore-checkpoint"))
            return 1;
        points[0].restoreCheckpointPath = opt.restoreCheckpointPath;
    }

    SweepRequest request = spec.makeRequest();
    request.points = std::move(points);
    if (opt.checkpointWarmup)
        request.reuseWarmup = true;
    if (!opt.checkpointDir.empty())
        request.checkpointDir = opt.checkpointDir;
    // A typo'd snapshot directory should fail in milliseconds, not
    // after the first warmup finishes.
    if (!request.checkpointDir.empty())
        ensureWritableDir(request.checkpointDir);

    // A checkpoint directory also makes the sweep resumable: every
    // finished point is journaled there, and a re-run skips the
    // points an earlier (killed) run already journaled. Runs that
    // write a trace or checkpoint file are not journaled — skipping
    // their point would skip the file.
    SweepSubmitOptions submit;
    if (!request.checkpointDir.empty() && opt.recordPath.empty() &&
        opt.saveCheckpointPath.empty()) {
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
    if (opt.writeJson &&
        !writeBenchRecord(spec.benchName(), results, {}, opt.outDir,
                          &report.timing))
        return 3;
    return 0;
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
        } else if (arg == "--save-checkpoint") {
            opt.saveCheckpointPath = next();
        } else if (arg == "--restore-checkpoint") {
            opt.restoreCheckpointPath = next();
        } else if (arg == "--checkpoint-warmup") {
            opt.checkpointWarmup = true;
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

    // Output-path flags apply once per spec run: with several specs
    // each run would silently overwrite the previous spec's file.
    if (opt.specs.size() > 1 && !opt.recordPath.empty()) {
        std::fprintf(stderr,
                     "smtsim: --record with %zu specs would make "
                     "each spec overwrite \"%s\" — pass one spec "
                     "per --record invocation (or record each spec "
                     "to a distinct path)\n",
                     opt.specs.size(), opt.recordPath.c_str());
        return 1;
    }
    if (opt.specs.size() > 1 && !opt.saveCheckpointPath.empty()) {
        std::fprintf(stderr,
                     "smtsim: --save-checkpoint with %zu specs "
                     "would make each spec overwrite \"%s\" — pass "
                     "one spec per --save-checkpoint invocation\n",
                     opt.specs.size(),
                     opt.saveCheckpointPath.c_str());
        return 1;
    }
    if (!opt.recordPath.empty() &&
        !opt.restoreCheckpointPath.empty()) {
        std::fprintf(stderr,
                     "smtsim: --record cannot be combined with "
                     "--restore-checkpoint — the captured trace "
                     "would silently miss every record consumed "
                     "before the snapshot; record with a full run "
                     "instead\n");
        return 1;
    }
    if (!opt.saveCheckpointPath.empty() &&
        !opt.restoreCheckpointPath.empty()) {
        std::fprintf(stderr,
                     "smtsim: --save-checkpoint cannot be combined "
                     "with --restore-checkpoint — a restored run "
                     "skips the warmup, so there is no new "
                     "post-warmup state to save (the restored "
                     "checkpoint already is that state)\n");
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
        } catch (const CheckpointError &e) {
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
