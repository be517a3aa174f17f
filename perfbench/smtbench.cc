/**
 * @file
 * smtbench: the measuring half of the simulator benchmark (run.py is
 * the other half: it builds this program, generates nothing itself,
 * compares results against the committed reference and prints the
 * metrics). Everything here drives the simulator from outside through
 * its public entry points.
 *
 *   smtbench record --workload ilp_replay --seed N --specs DIR --work DIR
 *     Run the ilp_replay point synthetically while recording every
 *     thread's correct path to v2 trace files (input generation, done
 *     in its own process before any timing).
 *
 *   smtbench run --workload W --seed N --seconds S --trace 0|1
 *                --specs DIR --work DIR
 *     Untraced (--trace 0): repeat the workload for S seconds and
 *     report raw per-repetition host-time samples. Traced (--trace 1):
 *     run it once with spans around every call into a layer, plus the
 *     layer drivers, and report the per-layer counters and spans.
 *
 * Output is one JSON document on stdout. Every simulated run is
 * checked here for the invariants the stats must satisfy and for
 * bit-identity with the first run of the same point.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "layers.hh"
#include "sim/executor.hh"
#include "sim/scheduler.hh"
#include "sim/simulator.hh"
#include "sim/snapshot_cache.hh"
#include "sim/sweep_spec.hh"
#include "tracer.hh"
#include "util/json.hh"
#include "util/sha256.hh"

namespace
{

using namespace smt;
namespace fs = std::filesystem;
using perfbench::ScopedSpan;
using perfbench::Tracer;

/** The four paper grids the paper_sweep workload submits. */
const std::vector<std::string> paperSpecs = {
    "fig5_ilp", "fig6_ilp_wide", "fig7_mem", "fig8_mem_wide"};

/** Extra cycles recorded past the measure window (replay margin). */
constexpr Cycle recordPadCycles = 20'000;

/** Correct-path records kept per thread for the layer replays. */
constexpr std::size_t captureRecords = 200'000;

/** Cycles per run() slice when sampling occupancies. */
constexpr Cycle sampleSlice = 250;

/** Rounds of setup_s samples per run (one pin per allowed CPU). */
constexpr int setupRounds = 4;

/** Set-ups timed per CPU pin, between two calibration loops. */
constexpr int setupsPerPin = 3;

/** Dependent loads per calibration loop. */
constexpr std::uint32_t calibrationSteps = 1'000'000;

/**
 * CPU seconds of one calibration loop on the reference CPU: about its
 * median on the 4-vCPU host the benchmark was tuned on, so scaled
 * figures stay close to that host's.
 */
constexpr double referenceCalibrationSeconds = 0.032;

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string specDir;
    std::string workDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "smtbench: " << why
              << "\nusage: smtbench record|run --workload W --seed N "
                 "[--seconds S] [--trace 0|1] --specs DIR --work DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Options o;
    o.mode = argv[1];
    if (o.mode != "record" && o.mode != "run")
        usage("unknown mode " + o.mode);
    for (int i = 2; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--specs")
            o.specDir = val;
        else if (key == "--work")
            o.workDir = val;
        else
            usage("unknown option " + key);
    }
    if (o.workload != "mem_clog" && o.workload != "ilp_replay" &&
        o.workload != "paper_sweep")
        usage("unknown workload '" + o.workload + "'");
    if (o.specDir.empty() || o.workDir.empty())
        usage("--specs and --work are required");
    return o;
}

double
wallSeconds()
{
    return static_cast<double>(perfbench::nowNs()) * 1e-9;
}

/** The CPUs the calling thread may run on. */
cpu_set_t
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    return set;
}

/**
 * Pins the calling thread to each CPU it may run on in turn, and
 * restores its original affinity on destruction. On shared hosts the
 * same code runs up to 35% slower on one CPU than on another, and
 * which CPUs are slow changes from minute to minute; a sample that
 * visits every CPU measures the machine instead of the CPU a process
 * happened to land on.
 */
class CpuRotation
{
  public:
    CpuRotation() : original(allowedCpus())
    {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original))
                cpus.push_back(c);
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof(original), &original); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    std::size_t size() const { return cpus.size(); }

    void
    pin(std::size_t i)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original;
    std::vector<int> cpus;
};

/**
 * Thread CPU seconds of a fixed loop: dependent loads around a random
 * 4 MB cycle mixed with data-dependent branches, a profile like the
 * simulator's. On a shared host the CPU time of the same work drifts
 * by 30% within minutes with what other tenants run; this loop, timed
 * on the same CPU around a sample, measures that drift. It belongs to
 * the benchmark, not to the program measured.
 */
double
calibrationSeconds()
{
    // Sattolo's shuffle of the identity: one cycle through all entries.
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> succ(1u << 20);
        for (std::uint32_t i = 0; i < succ.size(); ++i)
            succ[i] = i;
        std::uint64_t x = 88172645463325252ull;
        for (std::uint32_t i = succ.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(succ[i], succ[x % i]);
        }
        return succ;
    }();
    static volatile std::uint64_t sink = 0;
    const double c0 = perfbench::threadCpuSeconds();
    std::uint32_t i = 0;
    std::uint64_t h = 0;
    for (std::uint32_t k = 0; k < calibrationSteps; ++k) {
        i = next[i];
        h = h * 6364136223846793005ull + i;
        if (h >> 62)
            h ^= h >> 17;
        else
            h += 12345;
    }
    sink = sink + h;
    return perfbench::threadCpuSeconds() - c0;
}

/**
 * Run `work` on the calling thread between two calibration loops and
 * return how much slower the CPU ran than the reference: the loops'
 * mean CPU time over referenceCalibrationSeconds. A time divided by it
 * (a rate multiplied by it) is the reference CPU's figure.
 */
template <typename Work>
double
hostSlowdown(Work &&work)
{
    const double before = calibrationSeconds();
    work();
    const double after = calibrationSeconds();
    return (before + after) / (2 * referenceCalibrationSeconds);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error(path + ": cannot read");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * A benchmark spec as a request for the command-line seed. The seed
 * picks which stretch of every thread's correct path is measured: it
 * lengthens the warmup by (seed mod 16) x 500 cycles. The programs
 * themselves come from the spec's own seed, because a different
 * synthetic program per seed moves host speed by up to 2.5x on
 * mem_clog, which would drown any change the benchmark is meant to
 * show; a shifted window of the same programs keeps the host cost
 * within noise while every seed class still simulates other records.
 */
SweepRequest
loadRequest(const Options &o, const std::string &name)
{
    SweepSpec spec = SweepSpec::fromString(
        readFile(o.specDir + "/" + name + ".json"), name);
    SweepRequest req = spec.makeRequest();
    req.warmupCycles += (o.seed % 16) * 500;
    return req;
}

ExecutorParams
paramsOf(const SweepRequest &req)
{
    return ExecutorParams{req.warmupCycles, req.measureCycles, req.seed,
                          req.cycleSkip};
}

std::string
pointId(const std::string &spec, const GridPoint &p)
{
    std::string id = spec + ":" + p.workload + ":" +
                     engineName(p.engine) + ":" +
                     std::to_string(p.fetchThreads) + "." +
                     std::to_string(p.fetchWidth);
    std::string ov = p.overrides.describe();
    return ov.empty() ? id : id + ":" + ov;
}

std::string
traceBase(const Options &o)
{
    return o.workDir + "/ilp_replay.seed" + std::to_string(o.seed) +
           ".trc";
}

/** The spec a single-point workload (or paper_sweep's probe) runs. */
std::string
probeSpec(const Options &o)
{
    return o.workload == "paper_sweep" ? paperSpecs.front() : o.workload;
}

/** One point's identity and full simulator configuration. */
struct PointSetup
{
    std::string id;
    SimConfig cfg;
};

/**
 * Spec load plus configuration of the spec's first point; ilp_replay
 * points replay the recorded traces unless `synthetic` is set.
 */
PointSetup
loadPoint(const Options &o, bool synthetic = false)
{
    const std::string name = probeSpec(o);
    SweepRequest req = loadRequest(o, name);
    const GridPoint &p = req.points.at(0);
    PointSetup ps{pointId(name, p),
                  PointExecutor(paramsOf(req)).configFor(p)};
    if (o.workload == "ilp_replay" && !synthetic) {
        const unsigned n = ps.cfg.core.numThreads;
        for (unsigned t = 0; t < n; ++t)
            ps.cfg.workload.traces.push_back(Simulator::recordPathFor(
                traceBase(o), static_cast<ThreadID>(t), n));
    }
    return ps;
}

/** Digest of a stats dump plus the invariants it violates. */
struct Verdict
{
    std::string digest;
    std::vector<std::string> errors;
};

/**
 * Digest the stats dump without its sim.cycleSkip.* members (host
 * speed telemetry: run() slicing changes how spans are counted, never
 * the architecture), and check the invariants every run must satisfy:
 * per-thread IPCs sum to sim.ipc, per-thread cache accesses and misses
 * sum to the totals, and sim.cycles equals the measure window.
 */
Verdict
inspect(const std::string &stats_json, unsigned threads, Cycle window)
{
    Verdict v;
    JsonValue doc = jsonParse(stats_json);
    JsonValue::Object kept;
    for (const auto &[key, val] : doc.asObject())
        if (key.rfind("sim.cycleSkip.", 0) != 0)
            kept.emplace_back(key, val);
    std::string canon = JsonValue(std::move(kept)).dump(0);
    v.digest = sha256Hex(canon.data(), canon.size());

    auto num = [&](const std::string &key) {
        const JsonValue *x = doc.find(key);
        if (!x || !x->isNumber())
            throw std::runtime_error("stats lack " + key);
        return x->asNumber();
    };
    double ipc_sum = 0;
    for (unsigned t = 0; t < threads; ++t)
        ipc_sum += num("sim.thread" + std::to_string(t) + ".ipc");
    const double ipc = num("sim.ipc");
    if (std::abs(ipc_sum - ipc) > 1e-6 * std::max(1.0, std::abs(ipc)))
        v.errors.push_back("per-thread IPCs sum to " +
                           std::to_string(ipc_sum) + ", sim.ipc is " +
                           std::to_string(ipc));
    for (const char *cache : {"mem.l1i", "mem.l1d", "mem.l2"}) {
        for (const char *kind : {"accesses", "misses"}) {
            double sum = 0;
            for (unsigned t = 0; t < threads; ++t)
                sum += num(std::string(cache) + ".thread" +
                           std::to_string(t) + "." + kind);
            const double total = num(std::string(cache) + "." + kind);
            if (sum != total)
                v.errors.push_back(std::string(cache) + " per-thread " +
                                   kind + " sum to " +
                                   std::to_string(sum) + ", total is " +
                                   std::to_string(total));
        }
    }
    if (num("sim.cycles") != static_cast<double>(window))
        v.errors.push_back("sim.cycles " +
                           std::to_string(num("sim.cycles")) +
                           " != window " + std::to_string(window));
    return v;
}

/** Every run of one point: the first run's result and the verdicts. */
struct PointCheck
{
    double ipfc = 0;
    double ipc = 0;
    std::string digest;
    std::uint64_t runs = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        ++runs;
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    void
    add(const std::string &stats_json, double run_ipfc, double run_ipc,
        unsigned threads, Cycle window)
    {
        Verdict v;
        try {
            v = inspect(stats_json, threads, window);
        } catch (const std::exception &e) {
            fail(std::string("unreadable stats: ") + e.what());
            return;
        }
        if (digest.empty()) {
            digest = v.digest;
            ipfc = run_ipfc;
            ipc = run_ipc;
        } else if (v.digest != digest) {
            v.errors.push_back("run " + std::to_string(runs) +
                               " stats differ from the first run");
        }
        if (!v.errors.empty()) {
            fail(v.errors.front());
            return;
        }
        ++runs;
    }
};

using Checks = std::map<std::string, PointCheck>;

/** Host-time samples; run.py reports the median of each. */
struct Samples
{
    std::vector<double> setup, sweep, sweepCpu, resweep, mcps;

    /** hostSlowdown() of every scaled group of samples. */
    std::vector<double> slowdown;

    /** Append `rep`'s samples, scaled to the reference CPU. */
    void
    addScaled(const Samples &rep, double slow)
    {
        auto add = [](std::vector<double> &to,
                      const std::vector<double> &from, double f) {
            for (double x : from)
                to.push_back(x * f);
        };
        add(setup, rep.setup, 1 / slow);
        add(sweep, rep.sweep, 1 / slow);
        add(sweepCpu, rep.sweepCpu, 1 / slow);
        add(resweep, rep.resweep, 1 / slow);
        add(mcps, rep.mcps, slow);
        slowdown.push_back(slow);
    }

    /** Peak resident MB once the first repetition has finished (later
     *  repetitions reuse freed memory unevenly, so the peak over a
     *  time-bounded run would depend on how many fit). */
    double rssMb = 0;

    void
    noteFirstRep()
    {
        if (rssMb > 0)
            return;
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
};

/** Per-layer counters of the traced run, by metric name. */
using Counters = std::map<std::string, double>;

/** Sums of registry counters over one or more stats dumps. */
class LayerCounts
{
  public:
    void
    add(const std::string &stats_json)
    {
        JsonValue doc = jsonParse(stats_json);
        for (const char *key : keys) {
            const JsonValue *v = doc.find(key);
            if (v && v->isNumber())
                sums[key] += v->asNumber();
        }
    }

    /** The per-layer counter metrics derived from the sums. */
    void
    emit(Counters &c) const
    {
        auto get = [&](const char *k) {
            auto it = sums.find(k);
            return it == sums.end() ? 0.0 : it->second;
        };
        auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
        c["bpred.predictions"] = get("engine.blockPredictions");
        c["bpred.table_hit_frac"] =
            ratio(get("engine.tableHits"), get("engine.blockPredictions"));
        c["bpred.mispredict_rate"] = ratio(
            get("writeback.mispredictsResolved"), get("commit.ctis"));
        for (const char *cache : {"l1i", "l1d", "l2"})
            c[std::string("mem.") + cache + ".accesses"] =
                get(("mem." + std::string(cache) + ".accesses").c_str());
        c["mem.l1d.miss_rate"] =
            ratio(get("mem.l1d.misses"), get("mem.l1d.accesses"));
        c["mem.l2.miss_rate"] =
            ratio(get("mem.l2.misses"), get("mem.l2.accesses"));
        c["mem.itlb.accesses"] = get("mem.itlb.accesses");
        c["mem.dtlb.accesses"] = get("mem.dtlb.accesses");
        c["mem.dtlb.miss_rate"] =
            ratio(get("mem.dtlb.misses"), get("mem.dtlb.accesses"));
        c["mem.l1d.mshr_full_stalls"] = get("mem.l1d.mshrFullStalls");
        const double cycles = get("sim.cycles");
        const double skipped = get("sim.cycleSkip.cyclesSkipped");
        c["core.ticked_cycles"] = cycles - skipped;
        c["core.skip_frac"] = ratio(skipped, cycles);
        c["core.useful_fetch_frac"] =
            ratio(get("commit.insts"), get("fetch.insts"));
        c["core.wrong_path_frac"] =
            ratio(get("fetch.wrongPathInsts"), get("fetch.insts"));
        c["core.ipc"] = ratio(get("commit.insts"), cycles);
        c["core.ipfc"] = ratio(get("fetch.insts"), get("fetch.cycles"));
    }

  private:
    static constexpr const char *keys[] = {
        "engine.blockPredictions", "engine.tableHits",
        "writeback.mispredictsResolved", "commit.ctis", "commit.insts",
        "mem.l1i.accesses", "mem.l1d.accesses", "mem.l1d.misses",
        "mem.l2.accesses", "mem.l2.misses", "mem.itlb.accesses",
        "mem.dtlb.accesses", "mem.dtlb.misses", "mem.l1d.mshrFullStalls",
        "sim.cycles", "sim.cycleSkip.cyclesSkipped", "fetch.insts",
        "fetch.wrongPathInsts", "fetch.cycles"};
    std::map<std::string, double> sums;
};

/** Simulator::runMeasure under a span; @return its thread CPU s. */
double
measure(Simulator &sim, Tracer &tr, int parent)
{
    ScopedSpan sp(tr, "sim.measure", parent);
    double c0 = perfbench::threadCpuSeconds();
    sim.runMeasure();
    return perfbench::threadCpuSeconds() - c0;
}

/**
 * One cold run of a single point (spec load, construction, warmup,
 * in-memory checkpoint, measure) and one warm re-run restoring that
 * checkpoint into a fresh simulator, with spans under
 * `<root>.cold` / `<root>.warm`.
 */
void
coldWarm(const Options &o, Tracer &tr, const std::string &root,
         Samples &s, Checks &checks, Counters *layer,
         LayerCounts *counts = nullptr)
{
    std::string id = probeSpec(o);
    try {
        double w0 = wallSeconds();
        double c0 = perfbench::processCpuSeconds();
        std::string snapshot, cold_json;
        SimConfig cfg;
        double ipfc = 0, ipc = 0;
        {
            ScopedSpan cold(tr, root + ".cold");
            ScopedSpan point(tr, "sweep.point", cold.id());
            std::unique_ptr<Simulator> sim;
            {
                ScopedSpan sp(tr, "sim.setup", point.id());
                PointSetup ps = loadPoint(o);
                id = ps.id;
                cfg = ps.cfg;
                sim = std::make_unique<Simulator>(ps.cfg);
            }
            {
                ScopedSpan sp(tr, "sim.warmup", point.id());
                sim->runWarmup();
            }
            {
                ScopedSpan sp(tr, "sim.ckpt_save", point.id());
                snapshot = sim->saveCheckpointToString();
            }
            double cpu = measure(*sim, tr, point.id());
            s.mcps.push_back(cfg.measureCycles * 1e-6 / cpu);
            cold_json = sim->measuredStatsJson();
            ipfc = sim->stats().ipfc();
            ipc = sim->stats().ipc();
            if (tr.on()) {
                ScopedSpan sp(tr, "sim.stats_json", point.id());
                (void)sim->registry().jsonString();
            }
            if (layer) {
                (*layer)["sim.ckpt_bytes"] = snapshot.size();
                (*layer)["probe.measure_cpu_s"] = cpu;
            }
        }
        s.sweep.push_back(wallSeconds() - w0);
        s.sweepCpu.push_back(perfbench::processCpuSeconds() - c0);
        checks[id].add(cold_json, ipfc, ipc, cfg.core.numThreads,
                       cfg.measureCycles);
        if (counts)
            counts->add(cold_json);

        w0 = wallSeconds();
        std::string warm_json;
        {
            ScopedSpan warm(tr, root + ".warm");
            ScopedSpan point(tr, "sweep.point", warm.id());
            std::unique_ptr<Simulator> sim;
            {
                ScopedSpan sp(tr, "sim.setup", point.id());
                sim = std::make_unique<Simulator>(loadPoint(o).cfg);
            }
            {
                ScopedSpan sp(tr, "sim.ckpt_restore", point.id());
                sim->restoreCheckpointFromString(snapshot);
            }
            double cpu = measure(*sim, tr, point.id());
            s.mcps.push_back(cfg.measureCycles * 1e-6 / cpu);
            warm_json = sim->measuredStatsJson();
            ipfc = sim->stats().ipfc();
            ipc = sim->stats().ipc();
        }
        s.resweep.push_back(wallSeconds() - w0);
        checks[id].add(warm_json, ipfc, ipc, cfg.core.numThreads,
                       cfg.measureCycles);
    } catch (const std::exception &e) {
        checks[id].fail(e.what());
    }
}

/**
 * The traced probe of the workload's (first) point: image build, a
 * run with every thread's trace source behind the timing decorator
 * and the measure window sliced to sample IQ/ROB/fetch-buffer
 * occupancy, then the isolated bpred and mem replays over the
 * correct path that run consumed. Its stats must equal the plain
 * cold run's (checked through `checks`).
 */
void
tracedProbe(const Options &o, Tracer &tr, Checks &checks, Counters &c)
{
    PointSetup ps = loadPoint(o);
    {
        ScopedSpan sp(tr, "workload.build");
        (void)buildWorkload(ps.cfg.workload, ps.cfg.seed);
    }
    try {
        ScopedSpan root(tr, "probe.traced");
        Simulator sim(ps.cfg);
        const unsigned n = ps.cfg.core.numThreads;
        std::vector<std::unique_ptr<perfbench::TimedTraceSource>> timed;
        for (unsigned t = 0; t < n; ++t) {
            const auto tid = static_cast<ThreadID>(t);
            timed.push_back(std::make_unique<perfbench::TimedTraceSource>(
                sim.trace(tid), captureRecords));
            sim.core().setThread(tid, timed.back().get(),
                                 sim.workload().images[t].get());
        }
        auto fold = [&](int parent) {
            std::uint64_t count = 0;
            std::int64_t ns = 0;
            for (auto &src : timed) {
                count += src->records();
                ns += src->nanoseconds();
            }
            tr.aggregate("workload.next", parent, count, ns);
            return count;
        };
        {
            ScopedSpan sp(tr, "sim.warmup", root.id());
            sim.runWarmup();
            fold(sp.id());
            for (auto &src : timed)
                src->reset();
        }
        double iq = 0, rob = 0, fb = 0, samples = 0, cpu = 0;
        {
            ScopedSpan sp(tr, "core.measure_sliced", root.id());
            SmtCore &core = sim.core();
            double c0 = perfbench::threadCpuSeconds();
            for (Cycle done = 0; done < ps.cfg.measureCycles;) {
                Cycle step =
                    std::min(sampleSlice, ps.cfg.measureCycles - done);
                core.run(step);
                done += step;
                iq += core.iqOccupancy();
                rob += core.robOccupancy();
                fb += static_cast<double>(core.fetchBufferSize());
                samples += 1;
            }
            cpu = perfbench::threadCpuSeconds() - c0;
            c["workload.records"] = static_cast<double>(fold(sp.id()));
        }
        c["core.iq_occ_mean"] = iq / samples;
        c["core.rob_occ_mean"] = rob / samples;
        c["core.fetch_buffer_occ_mean"] = fb / samples;
        c["probe.traced_measure_cpu_s"] = cpu;
        c["probe.ticked_cycles"] = static_cast<double>(
            sim.stats().cycles - sim.stats().cyclesSkipped);
        checks[ps.id].add(sim.registry().jsonString(), sim.stats().ipfc(),
                          sim.stats().ipc(), n, ps.cfg.measureCycles);

        ScopedSpan replay(tr, "probe.replay");
        std::vector<std::vector<TraceRecord>> paths;
        std::vector<const StaticProgram *> programs;
        for (unsigned t = 0; t < n; ++t) {
            paths.push_back(timed[t]->captured());
            programs.push_back(&sim.workload().images[t]->program);
        }
        perfbench::ReplayTiming bp =
            perfbench::replayPredictor(ps.cfg.core, programs, paths);
        tr.aggregate("bpred.predict", replay.id(), bp.calls, bp.ns);
        perfbench::MemReplay mem =
            perfbench::replayMemory(ps.cfg.core, paths);
        tr.aggregate("mem.icache_access", replay.id(), mem.icache.calls,
                     mem.icache.ns);
        tr.aggregate("mem.dcache_access", replay.id(), mem.dcache.calls,
                     mem.dcache.ns);
        tr.aggregate("mem.tlb_access", replay.id(), mem.tlb.calls,
                     mem.tlb.ns);
    } catch (const std::exception &e) {
        checks[ps.id].fail(std::string("traced probe: ") + e.what());
    }
}

/** What one pass over the paper grids produced. */
struct SweepPass
{
    double wall = 0;
    double cpu = 0;
    double pointCpu = 0;    //!< Σ thread CPU inside PointExecutor
    double pointCycles = 0; //!< Σ cycles those points simulated
    SweepTiming timing;     //!< summed over the submitted jobs
};

/**
 * Submit every paper grid to one SweepScheduler of `workers` threads
 * sharing a fresh snapshot cache over checkpoint directory `dir`, and
 * wait for all of them. Each point runs through PointExecutor::execute
 * inside a benchmark runner that times it (thread CPU, span) and turns
 * a throwing point into a counted failure instead of a failed sweep.
 */
SweepPass
sweepPass(const std::vector<std::string> &names,
          std::vector<SweepRequest> requests, const std::string &dir,
          unsigned workers, Tracer &tr, const std::string &span_name,
          Checks &checks, LayerCounts *counts)
{
    struct PointRun
    {
        double cpu = 0;
        double cycles = 0;
        std::string error;
    };
    WarmupSnapshotCache cache;
    std::deque<PointExecutor> executors;
    std::vector<std::vector<PointRun>> runs(requests.size());
    SweepPass pass;
    std::vector<SweepReport> reports;
    {
        SweepScheduler sched(workers, &cache);
        ScopedSpan span(tr, span_name);
        const int parent = span.id();
        double w0 = wallSeconds();
        double c0 = perfbench::processCpuSeconds();
        std::vector<SweepScheduler::JobId> ids;
        for (std::size_t j = 0; j < requests.size(); ++j) {
            SweepRequest &req = requests[j];
            req.checkpointDir = dir;
            executors.emplace_back(paramsOf(req), &cache, dir);
            runs[j].resize(req.points.size());
            SweepScheduler::SubmitOptions opts;
            opts.runner = [&tr, parent, &ex = executors.back(),
                           &jr = runs[j], warmup = req.warmupCycles,
                           window = req.measureCycles](
                              std::size_t i, const GridPoint &p) {
                ScopedSpan sp(tr, "sweep.point", parent);
                double c = perfbench::threadCpuSeconds();
                PointOutcome out;
                try {
                    out = ex.execute(p);
                } catch (const std::exception &e) {
                    jr[i].error = e.what();
                    out = PointOutcome{};
                    out.direct = true;
                }
                jr[i].cpu = perfbench::threadCpuSeconds() - c;
                jr[i].cycles = static_cast<double>(
                    (out.restored ? 0 : warmup) + window);
                return out;
            };
            ids.push_back(sched.submit(req, names[j], std::move(opts)));
        }
        for (auto id : ids)
            reports.push_back(sched.wait(id));
        pass.wall = wallSeconds() - w0;
        pass.cpu = perfbench::processCpuSeconds() - c0;
    }
    for (std::size_t j = 0; j < requests.size(); ++j) {
        const SweepTiming &t = reports[j].timing;
        pass.timing.gridPoints += t.gridPoints;
        pass.timing.warmupRuns += t.warmupRuns;
        pass.timing.restoredRuns += t.restoredRuns;
        pass.timing.cacheDiskHits += t.cacheDiskHits;
        const std::vector<GridPoint> &points = requests[j].points;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const PointRun &r = runs[j][i];
            PointCheck &check = checks[pointId(names[j], points[i])];
            pass.pointCpu += r.cpu;
            pass.pointCycles += r.cycles;
            if (!r.error.empty()) {
                check.fail(r.error);
                continue;
            }
            const ExperimentResult &res = reports[j].results[i];
            check.add(res.statsJson, res.ipfc, res.ipc,
                      workloadThreadCount(res.workload),
                      requests[j].measureCycles);
            if (counts)
                counts->add(res.statsJson);
        }
    }
    return pass;
}

/** paper_sweep's workers: one fewer than the allowed CPUs, at most 3. */
unsigned
sweepWorkers()
{
    cpu_set_t set = allowedCpus();
    return static_cast<unsigned>(std::clamp(CPU_COUNT(&set) - 1, 1, 3));
}

/**
 * Mean calibration-loop CPU seconds over every allowed CPU, for work
 * whose threads float over all of them; restores the affinity after.
 */
double
allCpuCalibrationSeconds()
{
    CpuRotation cpus;
    double sum = 0;
    for (std::size_t c = 0; c < cpus.size(); ++c) {
        cpus.pin(c);
        sum += calibrationSeconds();
    }
    return sum / static_cast<double>(cpus.size());
}

std::vector<SweepRequest>
loadPaperRequests(const Options &o)
{
    std::vector<SweepRequest> reqs;
    for (const std::string &name : paperSpecs)
        reqs.push_back(loadRequest(o, name));
    return reqs;
}

/**
 * paper_sweep: each repetition is a cold sweep into a fresh checkpoint
 * directory followed by a warm re-sweep whose warmups all come back
 * from that directory. The workers float over every allowed CPU, so
 * the repetition is scaled by the slowdown of all of them, timed
 * before, between and after the two passes.
 */
void
paperSweep(const Options &o, Tracer &tr, Samples &s, Checks &checks,
           Counters *layer)
{
    const unsigned workers = sweepWorkers();
    const std::string dir = o.workDir + "/checkpoints";
    LayerCounts counts;
    const double start = wallSeconds();
    do {
        fs::remove_all(dir);
        fs::create_directories(dir);
        std::vector<SweepRequest> reqs = loadPaperRequests(o);
        double calib = allCpuCalibrationSeconds();
        SweepPass cold = sweepPass(paperSpecs, reqs, dir, workers, tr,
                                   "sweep.cold", checks,
                                   layer ? &counts : nullptr);
        calib += allCpuCalibrationSeconds();
        SweepPass warm = sweepPass(paperSpecs, reqs, dir, workers, tr,
                                   "sweep.warm", checks, nullptr);
        calib += allCpuCalibrationSeconds();
        fs::remove_all(dir);
        s.noteFirstRep();
        Samples rep;
        rep.sweep.push_back(cold.wall);
        rep.sweepCpu.push_back(cold.cpu);
        rep.resweep.push_back(warm.wall);
        rep.mcps.push_back((cold.pointCycles + warm.pointCycles) * 1e-6 /
                           (cold.pointCpu + warm.pointCpu));
        s.addScaled(rep, calib / (3 * referenceCalibrationSeconds));
        if (layer) {
            counts.emit(*layer);
            (*layer)["sweep.points"] = cold.timing.gridPoints;
            (*layer)["sweep.warmup_runs"] = cold.timing.warmupRuns;
            (*layer)["sweep.restored_runs"] = warm.timing.restoredRuns;
            (*layer)["sweep.disk_hits"] = warm.timing.cacheDiskHits;
            (*layer)["sweep.workers"] = workers;
            break;
        }
    } while (wallSeconds() - start < o.seconds);
}

/**
 * Digest of what the simulator is given: the full configuration
 * (windows included) and, for replays, the trace files' contents.
 */
std::string
inputDigest(const SimConfig &cfg)
{
    std::string text = warmupConfigKey(cfg) +
                       "|measure=" + std::to_string(cfg.measureCycles);
    for (const std::string &path : cfg.workload.traces)
        text += "|" + sha256File(path);
    return sha256Hex(text.data(), text.size());
}

int
record(const Options &o)
{
    if (o.workload != "ilp_replay")
        usage("record applies to ilp_replay only");
    fs::create_directories(o.workDir);
    PointSetup ps = loadPoint(o, /*synthetic=*/true);
    ps.cfg.recordPath = traceBase(o);
    ps.cfg.recordPadCycles = recordPadCycles;
    Simulator sim(ps.cfg);
    sim.run();
    Verdict v = inspect(sim.measuredStatsJson(), ps.cfg.core.numThreads,
                        ps.cfg.measureCycles);
    JsonWriter jw(std::cout, 0);
    jw.beginObject();
    jw.field("id", ps.id);
    jw.field("digest", v.digest);
    jw.endObject();
    std::cout << '\n';
    return v.errors.empty() ? 0 : 1;
}

/**
 * setup_s: host time from start to the first simulated cycle. Single
 * points: spec load plus Simulator construction. paper_sweep: spec
 * load and request build, scheduler construction and the first grid
 * point's Simulator construction. Each round pins a few set-ups to
 * every allowed CPU in turn, so every CPU gives equally many samples,
 * and scales them by that CPU's slowdown around them.
 */
void
measureSetup(const Options &o, Samples &s)
{
    auto once = [&o]() {
        double t0 = wallSeconds();
        if (o.workload == "paper_sweep") {
            std::vector<SweepRequest> reqs = loadPaperRequests(o);
            SweepScheduler sched(sweepWorkers());
            Simulator first(PointExecutor(paramsOf(reqs.front()))
                                .configFor(reqs.front().points.front()));
            return wallSeconds() - t0;
        }
        Simulator sim(loadPoint(o).cfg);
        return wallSeconds() - t0;
    };
    CpuRotation cpus;
    for (int k = 0; k < setupRounds; ++k) {
        for (std::size_t c = 0; c < cpus.size(); ++c) {
            cpus.pin(c);
            Samples rep;
            double slow = hostSlowdown([&] {
                for (int i = 0; i < setupsPerPin; ++i)
                    rep.setup.push_back(once());
            });
            s.addScaled(rep, slow);
        }
    }
}

/**
 * Single points, untraced: rounds of cold/warm repetitions, one per
 * allowed CPU, until `seconds` have passed. Every repetition is a
 * sample, scaled by the CPU's slowdown around it; whole rounds keep
 * the CPUs equally represented.
 */
void
singlePointRounds(const Options &o, Samples &s, Checks &checks)
{
    Tracer off(false);
    CpuRotation cpus;
    const double start = wallSeconds();
    do {
        for (std::size_t c = 0; c < cpus.size(); ++c) {
            cpus.pin(c);
            Samples rep;
            double slow = hostSlowdown(
                [&] { coldWarm(o, off, "sweep", rep, checks, nullptr); });
            s.addScaled(rep, slow);
            s.noteFirstRep();
        }
    } while (wallSeconds() - start < o.seconds &&
             checks.begin()->second.failed == 0);
}

int
run(const Options &o)
{
    fs::create_directories(o.workDir);
    Tracer tr(o.trace);
    Samples s;
    Checks checks;
    Counters layer;

    const bool sweep = o.workload == "paper_sweep";
    if (!o.trace) {
        measureSetup(o, s);
        if (sweep)
            paperSweep(o, tr, s, checks, nullptr);
        else
            singlePointRounds(o, s, checks);
    } else {
        LayerCounts counts;
        {
            // The plain and the decorated probe share one CPU, so the
            // tracing overhead compares like with like.
            CpuRotation cpus;
            cpus.pin(0);
            coldWarm(o, tr, sweep ? "probe" : "sweep", s, checks, &layer,
                     sweep ? nullptr : &counts);
            tracedProbe(o, tr, checks, layer);
        }
        if (sweep) {
            paperSweep(o, tr, s, checks, &layer);
        } else {
            // The single point is a one-point sweep the benchmark runs.
            counts.emit(layer);
            layer["sweep.points"] = 1;
            layer["sweep.warmup_runs"] = 1;
            layer["sweep.restored_runs"] = 1;
            layer["sweep.disk_hits"] = 0;
            layer["sweep.workers"] = 1;
        }
    }

    JsonWriter jw(std::cout, 0);
    jw.beginObject();
    jw.field("workload", o.workload);
    jw.field("seed", o.seed);
    jw.field("input_digest", inputDigest(loadPoint(o).cfg));
    jw.field("peak_rss_mb", s.rssMb);
    jw.key("points");
    jw.beginObject();
    for (const auto &[id, c] : checks) {
        jw.key(id);
        jw.beginObject();
        jw.field("ipfc", c.ipfc);
        jw.field("ipc", c.ipc);
        jw.field("digest", c.digest);
        jw.field("runs", c.runs);
        jw.field("failed", c.failed);
        jw.key("errors");
        jw.beginArray();
        for (const auto &e : c.errors)
            jw.value(e);
        jw.endArray();
        jw.endObject();
    }
    jw.endObject();
    jw.key("samples");
    jw.beginObject();
    auto series = [&](const char *name, const std::vector<double> &v) {
        jw.key(name);
        jw.beginArray();
        for (double x : v)
            jw.value(x);
        jw.endArray();
    };
    series("setup_s", s.setup);
    series("sweep_s", s.sweep);
    series("sweep_cpu_s", s.sweepCpu);
    series("resweep_s", s.resweep);
    series("sim_mcps", s.mcps);
    series("host_slowdown", s.slowdown);
    jw.endObject();
    jw.key("counters");
    jw.beginObject();
    for (const auto &[k, v] : layer)
        jw.field(k, v);
    jw.endObject();
    tr.writeJson(jw);
    jw.endObject();
    std::cout << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    try {
        return o.mode == "record" ? record(o) : run(o);
    } catch (const std::exception &e) {
        std::cerr << "smtbench: " << e.what() << '\n';
        return 1;
    }
}
