#!/usr/bin/env python3
"""Validate BENCH_*.json records emitted by smtsim.

Checks the smtfetch-bench-v1 schema, rejects NaN/zero metrics and
empty stats, validates the optional `warmupReuse` and `expectations`
blocks (require the first with --require-warmup-reuse), checks each
result's per-thread IPC, shared-cache interference and cycle-skip
counters against its totals (every access and miss must be attributed
to exactly one thread), and (with
--spec) cross-checks that every grid point the experiment spec
expands to is present in the record, so a silently dropped series
fails CI.

Usage:
  check_bench.py BENCH_fig4_two_threads.json
  check_bench.py --spec configs/fig4_two_threads.json BENCH_fig4_two_threads.json
  check_bench.py --min-results 4 BENCH_*.json
"""

import argparse
import itertools
import json
import math
import sys

SCHEMA = "smtfetch-bench-v1"

RESULT_REQUIRED_KEYS = (
    "workload",
    "engine",
    "policy",
    "fetchThreads",
    "fetchWidth",
    "policyString",
    "warmupCycles",
    "measureCycles",
    "ipfc",
    "ipc",
    "stats",
)

# Keyed by the normalized spelling engineKindFromString accepts
# (lowercased, '+', '_', '-' and spaces stripped). Mirrors the C++
# EngineRegistry (src/bpred/engine_registry.cc); `smtsim
# --list-engines --quiet` prints the authoritative canonical list.
ENGINE_NAMES = {
    "gshare": "gshare+BTB",
    "gsharebtb": "gshare+BTB",
    "gskew": "gskew+FTB",
    "gskewftb": "gskew+FTB",
    "stream": "stream",
    "tage": "tage",
    "perfectbp": "perfect-bp",
    "oraclebp": "perfect-bp",
    "perfectl1i": "perfect-l1i",
    "perfecticache": "perfect-l1i",
    "oraclel1i": "perfect-l1i",
    "adaptive": "adaptive",
    "adaptiverate": "adaptive",
    "adaptivefetch": "adaptive",
}

# The paper's engine trio ("paper") and the full zoo ("all"), in
# registry order.
PAPER_ENGINES = ["gshare+BTB", "gskew+FTB", "stream"]
ALL_ENGINES = PAPER_ENGINES + ["tage", "perfect-bp", "perfect-l1i", "adaptive"]


def normalize_engine(name):
    key = name.lower().translate(str.maketrans("", "", "+_- "))
    if key not in ENGINE_NAMES:
        raise CheckFailure(f"unknown engine {name!r} in spec")
    return ENGINE_NAMES[key]


class CheckFailure(Exception):
    pass


def bad_number(value):
    return (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or math.isnan(value)
        or math.isinf(value)
    )


def check_result(i, result):
    for key in RESULT_REQUIRED_KEYS:
        if key not in result:
            raise CheckFailure(f"results[{i}] is missing '{key}'")
    for key in ("ipfc", "ipc"):
        value = result[key]
        if bad_number(value):
            raise CheckFailure(f"results[{i}].{key} is not a finite number: {value!r}")
        if value <= 0:
            raise CheckFailure(
                f"results[{i}].{key} must be positive, got {value!r} "
                f"({result['workload']}/{result['engine']}/{result['policyString']})"
            )
    if not isinstance(result["stats"], dict) or not result["stats"]:
        raise CheckFailure(f"results[{i}].stats must be a non-empty object")
    if result["measureCycles"] <= 0:
        raise CheckFailure(f"results[{i}].measureCycles must be positive")
    if result["engine"] not in ALL_ENGINES:
        raise CheckFailure(
            f"results[{i}].engine {result['engine']!r} is not a "
            f"registered engine (known: {', '.join(ALL_ENGINES)})"
        )


MAX_THREADS = 8

# Shared caches whose per-thread attribution counters the stats dump
# carries (mirrors MemoryHierarchy::registerStats).
CACHE_PREFIXES = ("mem.l1i", "mem.l1d", "mem.l2")


def workload_thread_count(workload):
    """Thread count a workload name runs with.

    Mirrors workloadThreadCount in src/workload/workloads.cc:
    "trace:a,b,c" runs one thread per comma-separated path, Table 2
    mixes ("4_MIX") encode their roster size in the numeric prefix,
    and bare benchmark names are single-threaded.
    """
    if workload.startswith("trace:"):
        return workload.count(",") + 1
    head = workload.split("_", 1)[0]
    if head != workload and head.isdigit():
        return int(head)
    return 1


def check_per_thread(i, result):
    """Check per-thread IPC and cache-interference attribution.

    The per-thread keys are registered per configured thread, so a
    record is also rejected when a result carries counters for
    threads beyond its workload's roster.
    """
    stats = result["stats"]
    threads = workload_thread_count(result["workload"])

    ipc_keys = [f"sim.thread{t}.ipc" for t in range(threads)]
    if any(k in stats for k in ipc_keys):
        missing = [k for k in ipc_keys if k not in stats]
        if missing:
            raise CheckFailure(
                f"results[{i}] ({result['workload']}) has only some "
                f"per-thread IPC stats (missing {missing})"
            )
        for t in range(threads, MAX_THREADS):
            if f"sim.thread{t}.ipc" in stats:
                raise CheckFailure(
                    f"results[{i}] ({result['workload']}) runs "
                    f"{threads} thread(s) but reports "
                    f"sim.thread{t}.ipc"
                )
        parts = [stats[k] for k in ipc_keys]
        if any(bad_number(v) or v < 0 for v in parts):
            raise CheckFailure(
                f"results[{i}] has a non-finite or negative "
                "per-thread IPC"
            )
        total = stats.get("sim.ipc", result["ipc"])
        if abs(sum(parts) - total) > 1e-6 * max(1.0, abs(total)):
            raise CheckFailure(
                f"results[{i}] ({result['workload']}): per-thread "
                f"IPCs sum to {sum(parts)!r} but sim.ipc is "
                f"{total!r}"
            )

    for prefix in CACHE_PREFIXES:
        if f"{prefix}.thread0.accesses" not in stats:
            continue
        for kind in ("accesses", "misses"):
            total_key = f"{prefix}.{kind}"
            if total_key not in stats:
                raise CheckFailure(
                    f"results[{i}] has {prefix}.thread0.{kind} but "
                    f"no {total_key}"
                )
            parts = []
            for t in range(MAX_THREADS):
                key = f"{prefix}.thread{t}.{kind}"
                if t < threads and key not in stats:
                    raise CheckFailure(
                        f"results[{i}] ({result['workload']}) runs "
                        f"{threads} thread(s) but lacks {key}"
                    )
                if t >= threads and key in stats:
                    raise CheckFailure(
                        f"results[{i}] ({result['workload']}) runs "
                        f"{threads} thread(s) but reports {key}"
                    )
                parts.append(stats.get(key, 0))
            if sum(parts) != stats[total_key]:
                raise CheckFailure(
                    f"results[{i}] ({result['workload']}): "
                    f"{prefix}.thread*.{kind} sum to {sum(parts)} "
                    f"but {total_key} is {stats[total_key]} (every "
                    f"{kind[:-2]} must be attributed to exactly one "
                    "thread)"
                )


def check_metrics(metrics):
    if not isinstance(metrics, dict):
        raise CheckFailure("'metrics' must be an object")
    for name, value in metrics.items():
        if bad_number(value):
            raise CheckFailure(f"metric '{name}' is not a finite number: {value!r}")


# Cycle-skip telemetry in each result's stats: legitimately zero when
# skipping is off (--no-cycle-skip / "cycleSkip": false).
SKIP_STATS = tuple(
    f"sim.cycleSkip.{k}" for k in ("cyclesSkipped", "sleepEvents", "maxSkipSpan")
)


def check_cycle_skip(i, result):
    """Check a result's cycle-skip counters against its measure window."""
    stats = result["stats"]
    missing = [k for k in SKIP_STATS if k not in stats]
    if missing:
        if len(missing) != len(SKIP_STATS):
            raise CheckFailure(
                f"results[{i}] has only some cycle-skip counters "
                f"(missing {missing})"
            )
        return
    for key in SKIP_STATS:
        value = stats[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CheckFailure(
                f"results[{i}].stats[{key!r}] must be a non-negative "
                f"integer, got {value!r}"
            )
    skipped, events, span = (stats[k] for k in SKIP_STATS)
    if (skipped == 0) != (events == 0) or (skipped == 0) != (span == 0):
        raise CheckFailure(
            f"results[{i}] has inconsistent cycle-skip counters: "
            f"cyclesSkipped={skipped}, sleepEvents={events}, "
            f"maxSkipSpan={span} (all three must be zero or all nonzero)"
        )
    if events > skipped:
        raise CheckFailure(
            f"results[{i}] sleepEvents ({events}) exceeds cyclesSkipped "
            f"({skipped}): every fast-forward jumps at least one cycle"
        )
    if span > skipped:
        raise CheckFailure(
            f"results[{i}] maxSkipSpan ({span}) exceeds cyclesSkipped "
            f"({skipped})"
        )
    if skipped > result["measureCycles"]:
        raise CheckFailure(
            f"results[{i}] cyclesSkipped ({skipped}) exceeds "
            f"measureCycles ({result['measureCycles']})"
        )


EXPECTATION_COUNTS = ("holds", "of", "required")


def check_expectations(expectations):
    """Validate the paper-claim verdicts a spec-window smtsim run emits."""
    if not isinstance(expectations, list):
        raise CheckFailure("'expectations' must be an array")
    for i, entry in enumerate(expectations):
        if not isinstance(entry, dict):
            raise CheckFailure(f"expectations[{i}] must be an object")
        claim = entry.get("claim")
        if not isinstance(claim, str) or not claim:
            raise CheckFailure(f"expectations[{i}].claim must be a non-empty string")
        for key in EXPECTATION_COUNTS:
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise CheckFailure(
                    f"expectations[{i}].{key} must be a non-negative "
                    f"integer, got {value!r} ({claim!r})"
                )
        if not isinstance(entry.get("pass"), bool):
            raise CheckFailure(f"expectations[{i}].pass must be a boolean ({claim!r})")
        holds, of, required = (entry[k] for k in EXPECTATION_COUNTS)
        if holds > of or required > of:
            raise CheckFailure(
                f"expectations[{i}] ({claim!r}): holds {holds} and "
                f"required {required} must not exceed of {of}"
            )
        if entry["pass"] != (holds >= required):
            raise CheckFailure(
                f"expectations[{i}] ({claim!r}): pass is {entry['pass']} "
                f"but {holds} of {of} hold with {required} required"
            )


WARMUP_REUSE_COUNTS = (
    "gridPoints",
    "warmupGroups",
    "warmupRuns",
    "restoredRuns",
    "directRuns",
)


def check_warmup_reuse_disk_hits(reuse):
    """Validate cacheDiskHits, the restores the checkpoint directory served.

    Absent in records written before the shared snapshot cache. The
    other restored points shared a concurrent leader's warmup.
    """
    if "cacheDiskHits" not in reuse:
        return
    value = reuse["cacheDiskHits"]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CheckFailure(
            f"warmupReuse.cacheDiskHits must be a non-negative integer, "
            f"got {value!r}"
        )
    if value > reuse["restoredRuns"]:
        raise CheckFailure(
            f"warmupReuse.cacheDiskHits is {value} but restoredRuns is "
            f"{reuse['restoredRuns']} (every directory hit is a restored "
            "point)"
        )


def check_warmup_reuse(reuse, result_count):
    """Validate the warmup-sharing counts block a checkpointed sweep emits."""
    if not isinstance(reuse, dict):
        raise CheckFailure("'warmupReuse' must be an object")
    for key in WARMUP_REUSE_COUNTS:
        value = reuse.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CheckFailure(
                f"warmupReuse.{key} must be a non-negative integer, got {value!r}"
            )
    if reuse["gridPoints"] != result_count:
        raise CheckFailure(
            f"warmupReuse.gridPoints is {reuse['gridPoints']} but the record "
            f"has {result_count} results"
        )
    if reuse["warmupGroups"] > reuse["gridPoints"]:
        raise CheckFailure("warmupReuse.warmupGroups exceeds gridPoints")
    if reuse["warmupRuns"] > reuse["warmupGroups"]:
        raise CheckFailure("warmupReuse.warmupRuns exceeds warmupGroups")
    covered = reuse["warmupRuns"] + reuse["restoredRuns"] + reuse["directRuns"]
    if covered != reuse["gridPoints"]:
        raise CheckFailure(
            f"warmupReuse accounting covers {covered} points, expected "
            f"{reuse['gridPoints']} (warmupRuns + restoredRuns + directRuns)"
        )
    check_warmup_reuse_disk_hits(reuse)


def expand_spec(spec):
    """Expand a grid spec the way SweepSpec::expand does.

    Returns the list of expected (workload, engine, threads, width)
    series, one per grid point (selection policies and override
    variants multiply point counts but keep the same series key, so
    they are folded into a count per series).
    """
    if spec.get("type", "grid").lower() != "grid":
        return None

    def listify(value):
        return value if isinstance(value, list) else [value]

    sweeps = spec.get("sweeps")
    if sweeps is None:
        keys = ("workloads", "engines", "policies", "selection", "overrides")
        sweeps = [{k: spec[k] for k in keys if k in spec}]

    points = []
    for sweep in sweeps:
        workloads = listify(sweep["workloads"])
        engines = []
        for engine in listify(sweep.get("engines", ["paper"])):
            if engine.lower() == "all":
                engines.extend(ALL_ENGINES)
            elif engine.lower() == "paper":
                engines.extend(PAPER_ENGINES)
            else:
                engines.append(normalize_engine(engine))
        policies = []
        for policy in listify(sweep["policies"]):
            if isinstance(policy, dict):
                policies.append((policy["threads"], policy["width"]))
            else:
                n, x = policy.split(".")
                policies.append((int(n), int(x)))
        selections = listify(sweep.get("selection", ["icount"]))
        override_variants = 1
        for values in sweep.get("overrides", {}).values():
            override_variants *= len(listify(values))
        for workload, engine, (n, x) in itertools.product(
            workloads, engines, policies
        ):
            points.append(
                ((workload, engine, n, x), len(selections) * override_variants)
            )
    return points


def check_against_spec(doc, spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    expected = expand_spec(spec)
    if expected is None:
        if doc.get("results"):
            raise CheckFailure(
                f"{spec_path} is not a grid spec but the record has results"
            )
        return 0

    seen = {}
    for result in doc["results"]:
        key = (
            result["workload"],
            result["engine"],
            result["fetchThreads"],
            result["fetchWidth"],
        )
        seen[key] = seen.get(key, 0) + 1

    total = 0
    counted = {}
    for key, count in expected:
        counted[key] = counted.get(key, 0) + count
        total += count
    for key, count in counted.items():
        if seen.get(key, 0) != count:
            workload, engine, n, x = key
            raise CheckFailure(
                f"series {workload}/{engine}/{n}.{x}: expected {count} "
                f"result(s), found {seen.get(key, 0)} (missing series?)"
            )
    if len(doc["results"]) != total:
        raise CheckFailure(
            f"expected {total} results from {spec_path}, found {len(doc['results'])}"
        )
    return total


def check_file(path, args):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CheckFailure(f"not valid JSON: {e}")

    if doc.get("schema") != SCHEMA:
        raise CheckFailure(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not doc.get("bench"):
        raise CheckFailure("missing 'bench' name")

    results = doc.get("results")
    if not isinstance(results, list):
        raise CheckFailure("'results' must be an array")
    metrics = doc.get("metrics", {})
    check_metrics(metrics)
    if not results and not metrics:
        raise CheckFailure("record has neither results nor metrics")

    if args.require_warmup_reuse and "warmupReuse" not in doc:
        raise CheckFailure(
            "record has no 'warmupReuse' block (was the sweep run with "
            "--checkpoint-dir?)"
        )
    if "warmupReuse" in doc:
        check_warmup_reuse(doc["warmupReuse"], len(results))

    if "expectations" in doc:
        check_expectations(doc["expectations"])

    for i, result in enumerate(results):
        check_result(i, result)
        check_per_thread(i, result)
        check_cycle_skip(i, result)
    if len(results) < args.min_results:
        raise CheckFailure(
            f"expected at least {args.min_results} results, found {len(results)}"
        )

    expected = ""
    if args.spec:
        total = check_against_spec(doc, args.spec)
        expected = f", matches {args.spec} ({total} grid points)"
    claims = doc.get("expectations")
    claims = f", {len(claims)} claim verdicts" if claims is not None else ""
    return f"{len(results)} results, {len(metrics)} metrics{claims}{expected}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="BENCH_*.json records")
    parser.add_argument(
        "--min-results",
        type=int,
        default=0,
        help="fail unless the record has at least this many results",
    )
    parser.add_argument(
        "--spec",
        help="experiment spec to cross-check the record's grid against "
        "(use with a single record file)",
    )
    parser.add_argument(
        "--require-warmup-reuse",
        action="store_true",
        help="fail unless the record carries the warmup-sharing counts "
        "block a checkpointed sweep emits",
    )
    args = parser.parse_args()

    if args.spec and len(args.files) != 1:
        parser.error("--spec cross-checks exactly one record file")

    failed = False
    for path in args.files:
        try:
            summary = check_file(path, args)
        except (CheckFailure, OSError, KeyError, TypeError, ValueError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
        else:
            print(f"OK   {path}: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
