/**
 * @file
 * tracegen: generate a trace file straight from a synthetic
 * benchmark profile, without running the cycle-level pipeline.
 *
 * Useful for producing replay inputs much faster than
 * `smtsim --record`, since only the correct-path generator runs. The
 * output is a format-version-2 trace file with deflate-compressed
 * record blocks (`--codec raw` stores them verbatim).
 *
 * Usage: tracegen [options] <benchmark> <out.trc>
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/flag_value.hh"
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
        "usage: tracegen [options] <benchmark> <out.trc>\n"
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
        "  --codec C      block codec: raw or deflate (default\n"
        "                 deflate)\n"
        "  --list         list the benchmark profiles and exit\n"
        "  -h, --help     show this help\n");
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

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t insts = 1'000'000;
    std::uint64_t seed = 0;
    Addr code_base = 0x400000;
    Addr data_base = 0x40000000;
    TraceWriteOptions options;
    std::string benchmark, out_path;

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
            if (insts == 0) {
                std::fprintf(stderr,
                             "tracegen: --insts must be at least 1\n");
                return 1;
            }
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
            } else {
                std::fprintf(stderr,
                             "tracegen: --codec expects raw or "
                             "deflate, got \"%s\"\n",
                             c.c_str());
                return 1;
            }
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

    if (benchmark.empty() || out_path.empty()) {
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
        std::printf("wrote %s: %llu records, avg block %.2f, "
                    "avg stream %.2f\n",
                    out_path.c_str(),
                    (unsigned long long)writer.recordsWritten(),
                    s.avgBlockSize(), s.avgStreamLength());
    } catch (const TraceFileError &e) {
        std::fprintf(stderr, "tracegen: %s\n", e.what());
        return 2;
    }
    return 0;
}
