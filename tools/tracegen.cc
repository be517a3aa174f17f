/**
 * @file
 * tracegen: generate a trace file straight from a synthetic
 * benchmark profile, without running the cycle-level pipeline.
 *
 * Useful for producing replay inputs (and text fixtures) much faster
 * than `smtsim --record`, since only the correct-path generator runs.
 * The output's extension picks the encoding: `.strc` is the text
 * format, anything else the packed binary format.
 *
 * Usage: tracegen [options] <benchmark> <out.trc|out.strc>
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "util/flag_value.hh"
#include "workload/corpus.hh"
#include "workload/profiles.hh"
#include "workload/program_builder.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"

using namespace smt;

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: tracegen [options] <benchmark> <out.trc|out.strc>\n"
        "\n"
        "Generates a correct-path trace file from a synthetic\n"
        "benchmark profile. Replay it with a {\"trace\": PATH}\n"
        "workload in an smtsim spec.\n"
        "\n"
        "options:\n"
        "  --insts N      records to generate (default 1000000)\n"
        "  --seed N       image-construction seed (default 0)\n"
        "  --code-base A  code base address (default 0x400000)\n"
        "  --data-base A  data base address (default 0x40000000)\n"
        "  --codec C      block codec: raw, deflate or auto\n"
        "                 (default auto: deflate when built with\n"
        "                 zlib, raw otherwise)\n"
        "  --block-records N\n"
        "                 records per block (default %u)\n"
        "  --manifest P   append the trace to corpus manifest P,\n"
        "                 creating it if needed\n"
        "  --list         list the benchmark profiles and exit\n"
        "  -h, --help     show this help\n",
        traceBlockRecordsDefault);
}

/** Parse a numeric flag value; addresses also take 0x-hex. */
std::uint64_t
parseNum(const char *flag, const char *text, bool allow_hex = false)
{
    try {
        return parseFlagValue(flag, text, allow_hex);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "tracegen: %s\n", e.what());
        std::exit(1);
    }
}

/**
 * Add (or refresh) the freshly-written trace in a corpus manifest,
 * creating the manifest when it does not exist yet. The listed path
 * is manifest-relative when the trace sits under the manifest's
 * directory, so the corpus stays relocatable, and absolute otherwise.
 * Both paths are compared absolute and lexically normalised, so a
 * relative trace path matches an absolute manifest path.
 */
void
appendToManifest(const std::string &manifest_path,
                 const std::string &trace_path)
{
    CorpusManifest manifest;
    manifest.path = manifest_path;
    if (std::FILE *f = std::fopen(manifest_path.c_str(), "rb")) {
        std::fclose(f);
        manifest = loadCorpusManifest(manifest_path);
    }

    namespace fs = std::filesystem;
    const fs::path trace = fs::absolute(trace_path).lexically_normal();
    const fs::path rel = trace.lexically_relative(
        fs::absolute(manifest_path).lexically_normal().parent_path());
    const bool under = !rel.empty() && *rel.begin() != "..";
    const std::string listed =
        (under ? rel : trace).generic_string();

    CorpusEntry entry = describeTrace(trace_path, listed);
    bool replaced = false;
    for (auto &e : manifest.entries) {
        if (e.path == entry.path ||
            e.benchmark == entry.benchmark) {
            e = entry;
            replaced = true;
            break;
        }
    }
    if (!replaced)
        manifest.entries.push_back(entry);
    writeCorpusManifest(manifest);
    std::printf("%s %s in %s (%s)\n",
                replaced ? "updated" : "added", listed.c_str(),
                manifest_path.c_str(), entry.sha256.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t insts = 1'000'000;
    std::uint64_t seed = 0;
    Addr code_base = 0x400000;
    Addr data_base = 0x40000000;
    TraceWriteOptions options;
    std::string benchmark, out_path, manifest_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "tracegen: %s expects an argument\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            for (const auto &p : allProfiles())
                std::printf("%s\n", p.name.c_str());
            return 0;
        } else if (arg == "--insts") {
            insts = parseNum("--insts", next());
        } else if (arg == "--seed") {
            seed = parseNum("--seed", next());
        } else if (arg == "--code-base") {
            code_base = parseNum("--code-base", next(), true);
        } else if (arg == "--data-base") {
            data_base = parseNum("--data-base", next(), true);
        } else if (arg == "--codec") {
            std::string c = next();
            if (c == "raw") {
                options.codec = traceCodecRaw;
            } else if (c == "deflate") {
                options.codec = traceCodecDeflate;
            } else if (c == "auto") {
                options.codec = traceCodecAuto;
            } else {
                std::fprintf(stderr,
                             "tracegen: --codec expects raw, "
                             "deflate or auto, got \"%s\"\n",
                             c.c_str());
                return 1;
            }
        } else if (arg == "--block-records") {
            std::uint64_t n = parseNum("--block-records", next());
            if (n == 0 || n > (1u << 22)) {
                std::fprintf(stderr,
                             "tracegen: --block-records must be in "
                             "[1, %u], got %llu\n",
                             1u << 22, (unsigned long long)n);
                return 1;
            }
            options.blockRecords = static_cast<std::uint32_t>(n);
        } else if (arg == "--manifest") {
            manifest_path = next();
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "tracegen: unknown option %s\n",
                         arg.c_str());
            usage(stderr);
            return 1;
        } else if (benchmark.empty()) {
            benchmark = arg;
        } else if (out_path.empty()) {
            out_path = arg;
        } else {
            usage(stderr);
            return 1;
        }
    }

    if (benchmark.empty() || out_path.empty() || insts == 0) {
        usage(stderr);
        return 1;
    }

    bool known = false;
    for (const auto &p : allProfiles())
        known = known || p.name == benchmark;
    if (!known) {
        std::fprintf(stderr,
                     "tracegen: unknown benchmark \"%s\" (see "
                     "--list)\n",
                     benchmark.c_str());
        return 1;
    }

    try {
        BenchmarkImage img = buildImage(profileFor(benchmark),
                                        code_base, data_base, seed);
        TraceFileHeader hdr;
        hdr.benchmark = img.profile.name;
        hdr.seed = seed;
        hdr.codeBase = img.program.base();
        hdr.dataBase = img.dataBase;

        SyntheticTraceStream stream(img);
        TraceWriter writer(out_path, hdr, options);
        stream.setRecorder(&writer);
        for (std::uint64_t i = 0; i < insts; ++i)
            stream.next();
        writer.close();

        const TraceStats &s = stream.stats();
        std::printf("wrote %s: %llu records (%s), avg block %.2f, "
                    "avg stream %.2f\n",
                    out_path.c_str(),
                    (unsigned long long)writer.recordsWritten(),
                    traceFileIsText(out_path) ? "text" : "binary",
                    s.avgBlockSize(), s.avgStreamLength());

        if (!manifest_path.empty())
            appendToManifest(manifest_path, out_path);
    } catch (const TraceFileError &e) {
        std::fprintf(stderr, "tracegen: %s\n", e.what());
        return 2;
    } catch (const CorpusError &e) {
        std::fprintf(stderr, "tracegen: %s\n", e.what());
        return 2;
    }
    return 0;
}
