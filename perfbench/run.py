#!/usr/bin/env python3
"""Simulator benchmark: host speed, setup and sweep time of smtfetch.

Run from the repository root:

    python3 perfbench/run.py --workload mem_clog --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  mem_clog     one 4_MEM point, synthetic traces (memory-bound clog)
  ilp_replay   one 4_ILP point replaying v2 traces recorded from the seed
  paper_sweep  the fig5-fig8 grids through SweepScheduler, cold + warm

The script builds perfbench/ (with the repository's src/) into
$CARGO_TARGET_DIR (default .bench_build), runs the measuring program,
checks every simulated result and prints one line per metric followed
by a final JSON line {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
and writes the run's spans to the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

# Results for this seed are compared with reference.json; any other
# seed is checked through invariants and run-to-run identity only.
REFERENCE_SEED = 0

# Workloads and metric units, as declared in the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

# The whole run, build excluded, must end within this many seconds.
RUN_LIMIT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(out_dir):
    """Configure and build perfbench/ into out_dir; return the binary."""
    bdir = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "smtbench")


def run_json(cmd, deadline):
    """Run cmd to completion and parse the last stdout line as JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd[0]} {cmd[1]} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def self_time_ns(span, spans, aggregates):
    """Span duration minus the part of it its children cover.

    Child spans may overlap (sweep points run on several workers), so
    their cover is the union of their intervals clipped to the span.
    Aggregates (per-record or per-access calls folded into count and
    total time) run on the span's own thread, so they add their totals.
    """
    start, end = span["start_ns"], span["end_ns"]
    intervals = sorted(
        (max(c["start_ns"], start), min(c["end_ns"], end))
        for c in spans if c["parent"] == span["id"])
    covered, reach = 0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    covered += sum(a["total_ns"] for a in aggregates
                   if a["parent"] == span["id"])
    return (end - start) - covered


def layer_metrics(out):
    """Per-layer metrics from the traced run's counters and spans."""
    counters, spans, aggs = out["counters"], out["spans"], out["aggregates"]

    def first(name):
        return next(s for s in spans if s["name"] == name)

    def seconds(span):
        return (span["end_ns"] - span["start_ns"]) / 1e9

    def per_call(name, parent=None):
        a = next(a for a in aggs if a["name"] == name and
                 (parent is None or a["parent"] == parent))
        return a["count"], a["total_ns"] / max(1, a["count"])

    m = {k: v for k, v in counters.items() if k in PER_LAYER}
    m["workload.build_s"] = seconds(first("workload.build"))
    measure = first("core.measure_sliced")
    m["workload.records"], m["workload.ns_per_record"] = per_call(
        "workload.next", measure["id"])
    # The untraced cold run's measure window simulated the same records
    # as the decorated one; its CPU time, less their trace-source time,
    # is the core's, free of the decorator and the slicing loop.
    m["core.ns_per_tick"] = (
        (counters["probe.measure_cpu_s"] * 1e9 -
         m["workload.records"] * m["workload.ns_per_record"]) /
        counters["probe.ticked_cycles"])
    m["bpred.ns_per_predict"] = per_call("bpred.predict")[1]
    m["mem.ns_per_icache_access"] = per_call("mem.icache_access")[1]
    m["mem.ns_per_dcache_access"] = per_call("mem.dcache_access")[1]
    m["mem.ns_per_tlb_access"] = per_call("mem.tlb_access")[1]
    for name in ("setup", "warmup", "measure", "ckpt_save",
                 "ckpt_restore", "stats_json"):
        m[f"sim.{name}_s"] = seconds(first(f"sim.{name}"))
    cold = first("sweep.cold")
    points = [seconds(s) for s in spans
              if s["parent"] == cold["id"] and s["name"] == "sweep.point"]
    m["sweep.point_s_p50"] = statistics.median(points)
    m["sweep.point_s_p90"] = (statistics.quantiles(points, n=10)[8]
                              if len(points) > 1 else points[0])
    m["sweep.busy_frac"] = sum(points) / (counters["sweep.workers"] *
                                          seconds(cold))
    m["trace.overhead_frac"] = (counters["probe.traced_measure_cpu_s"] /
                                counters["probe.measure_cpu_s"] - 1.0)
    return m


def end_to_end_metrics(out, attempted, failed):
    samples = out["samples"]
    m = {name: statistics.median(samples[name]) for name in
         ("sim_mcps", "setup_s", "sweep_s", "sweep_cpu_s", "resweep_s")
         if samples[name]}
    m["peak_rss_mb"] = out["peak_rss_mb"]
    m["pass_frac"] = 1.0 - failed / attempted
    return m


def check_points(workload, seed, out, recorded, reference, problems):
    """Count attempted and failed runs; a mismatch fails every run."""
    points = out["points"]
    attempted = sum(p["runs"] for p in points.values())
    failed_ids = {pid for pid, p in points.items() if p["failed"]}
    for pid, p in points.items():
        problems.extend(f"{pid}: {e}" for e in p["errors"])
    if recorded is not None:
        p = points.get(recorded["id"])
        if p is None or p["digest"] != recorded["digest"]:
            problems.append(f"{recorded['id']}: replay stats differ from "
                            "the synthetic run that recorded the traces")
            failed_ids.add(recorded["id"])
    if seed == REFERENCE_SEED:
        ref = reference.get(workload, {})
        for pid in sorted(set(ref) | set(points)):
            want, got = ref.get(pid), points.get(pid)
            if want is None or got is None or any(
                    want[k] != got[k] for k in ("ipfc", "ipc", "digest")):
                problems.append(f"{pid}: differs from reference "
                                f"(want {want}, got "
                                f"{got and {k: got[k] for k in ('ipfc', 'ipc', 'digest')}})")
                failed_ids.add(pid)
    failed = sum(max(1, points[pid]["runs"]) if pid in points else 1
                 for pid in failed_ids)
    attempted = max(attempted, failed, 1)
    return attempted, failed


def update_reference(workload, out):
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            ref = json.load(f)
    ref[workload] = {pid: {k: p[k] for k in ("ipfc", "ipc", "digest")}
                     for pid, p in sorted(out["points"].items())}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite this workload's entry of "
                         "perfbench/reference.json from this run")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.exists(os.path.join(ROOT, "src", "sim", "simulator.hh")):
        log(f"perfbench: no simulator sources under {ROOT}/src")
        return 2
    if args.update_reference and (args.seed != REFERENCE_SEED or
                                  args.trace):
        ap.error("--update-reference needs --seed %d --trace 0"
                 % REFERENCE_SEED)

    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(out_dir, "perfbench-work")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--specs", os.path.join(HERE, "specs"), "--work", work]

    recorded = None
    if args.workload == "ilp_replay":
        recorded = run_json([binary, "record"] + common, deadline)
    out = run_json([binary, "run"] + common +
                   ["--seconds", str(args.seconds),
                    "--trace", str(args.trace)], deadline)

    if args.update_reference:
        update_reference(args.workload, out)
    reference = {}
    if args.seed == REFERENCE_SEED:
        with open(REFERENCE) as f:
            reference = json.load(f)

    problems = []
    attempted, failed = check_points(args.workload, args.seed, out,
                                     recorded, reference, problems)
    for p in problems:
        log("FAIL", p)

    if args.trace:
        units = PER_LAYER
        try:
            values = layer_metrics(out)
        except (StopIteration, KeyError, ZeroDivisionError,
                statistics.StatisticsError) as e:
            problems.append(f"traced run lacks a layer measurement ({e!r})")
            values = {}
        for span in out["spans"]:
            span["self_ns"] = self_time_ns(span, out["spans"],
                                           out["aggregates"])
        trace_path = os.path.join(
            out_dir, f"perfbench-trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump({k: out[k] for k in ("spans", "aggregates",
                                           "counters")}, f)
        log(f"spans written to {trace_path}")
    else:
        values, units = end_to_end_metrics(out, attempted, failed), END_TO_END
        slow = out["samples"]["host_slowdown"]
        log(f"host slowdown against the reference CPU: median "
            f"{statistics.median(slow):.3f} over {len(slow)} sample groups")

    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:12s} {name:28s} {value:16.6f} {unit}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
