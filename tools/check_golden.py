#!/usr/bin/env python3
"""Golden-stats regression check.

Re-runs an experiment spec through smtsim, validates the produced
BENCH record with check_bench.py (schema, per-thread and cycle-skip
sums, claim verdicts, and the grid cross-checked against the spec),
and diffs it against a committed golden record bit-exactly. Every
field of every result is compared, the full `stats` dump included:
the same keys, in the same order, with equal values. The record's
other top-level blocks (such as `expectations`) are compared the same
way. Only the `sim.cycleSkip.*` counters are left out; they measure
simulation speed, not the modelled machine. The simulator is
deterministic, so any drift is a behaviour change that must be
explicit; a mismatch names the first differing key.

Run with --update to regenerate the golden file after an intentional
change. It prints how many keys were added, removed and changed
against the old golden, so a re-pin that only adds counters can be
told apart from one that moves existing values:

    python3 tools/check_golden.py --smtsim build/smtsim \\
        --spec configs/fig2_single_thread.json \\
        --golden tests/golden/BENCH_fig2_single_thread.json --update
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import check_bench

# Host-speed telemetry: excluded from the comparison, as in perfbench's
# stats digest.
UNPINNED_PREFIX = "stats.sim.cycleSkip."


def result_key(r):
    return (
        r["workload"],
        r["engine"],
        r.get("policyString", ""),
        r.get("variant", ""),
    )


def committed_doc(doc, engines):
    """The part of a BENCH record a golden pins."""
    if engines is None:
        return doc
    doc = dict(doc)
    doc["results"] = [r for r in doc.get("results", []) if r["engine"] in engines]
    # The sweep-wide warmupReuse block describes the full grid, not
    # the committed subset.
    doc.pop("warmupReuse", None)
    return doc


def flat_items(value, prefix=""):
    """(dotted key, leaf value) pairs of a JSON object, in order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from flat_items(v, f"{prefix}.{k}" if prefix else k)
    else:
        yield prefix, value


def pinned_items(doc, path):
    """Map each unit of `doc` (a result key, or "record" for the
    top-level blocks) to its ordered list of pinned (key, value)."""
    units = {}
    top = {k: v for k, v in doc.items() if k != "results"}
    units["record"] = list(flat_items(top))
    for r in doc.get("results", []):
        key = result_key(r)
        if key in units:
            raise SystemExit(f"{path}: duplicate result key {key}")
        units[key] = [
            (k, v) for k, v in flat_items(r) if not k.startswith(UNPINNED_PREFIX)
        ]
    return units


def first_difference(got, want):
    """Describe the first position where two (key, value) lists
    differ, or return None when they are identical."""
    for (gk, gv), (wk, wv) in zip(got, want):
        if gk != wk:
            return f"key order differs: got {gk!r} where golden has {wk!r}"
        if gv != wv:
            return f"{gk}: got {gv!r}, golden {wv!r}"
    if len(got) > len(want):
        return f"unexpected key {got[len(want)][0]!r}"
    if len(want) > len(got):
        return f"missing key {want[len(got)][0]!r}"
    return None


def key_delta(old, new):
    """(added, removed, changed) leaf keys from `old` to `new`."""
    old_map = {(u, k): v for u, items in old.items() for k, v in items}
    new_map = {(u, k): v for u, items in new.items() for k, v in items}
    added = [k for k in new_map if k not in old_map]
    removed = [k for k in old_map if k not in new_map]
    changed = [k for k in new_map if k in old_map and new_map[k] != old_map[k]]
    return added, removed, changed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smtsim", required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--golden", required=True)
    ap.add_argument(
        "--update",
        action="store_true",
        help="regenerate the golden file instead of diffing",
    )
    ap.add_argument(
        "--engines",
        help="comma-separated engine names: only these engines' "
        "results are diffed (and, with --update, committed), so a "
        "spec sweeping the full zoo can pin just the paper trio",
    )
    args = ap.parse_args()
    engines = args.engines.split(",") if args.engines else None

    with tempfile.TemporaryDirectory(prefix="golden.") as tmp:
        proc = subprocess.run(
            [args.smtsim, "--quiet", "--out-dir", tmp, args.spec],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"smtsim failed with exit code {proc.returncode}")

        produced = [f for f in os.listdir(tmp) if f.startswith("BENCH_")]
        if len(produced) != 1:
            raise SystemExit(f"expected exactly one BENCH record, got {produced}")
        produced_path = os.path.join(tmp, produced[0])
        try:
            summary = check_bench.check_file(
                produced_path,
                argparse.Namespace(
                    spec=args.spec, min_results=0, require_warmup_reuse=False
                ),
            )
        except check_bench.CheckFailure as e:
            raise SystemExit(f"check_bench FAIL {produced[0]}: {e}")
        print(f"check_bench OK {produced[0]}: {summary}")

        with open(produced_path) as f:
            doc = committed_doc(json.load(f), engines)
        got = pinned_items(doc, produced_path)

        if args.update:
            if os.path.exists(args.golden):
                with open(args.golden) as f:
                    old = pinned_items(json.load(f), args.golden)
                added, removed, changed = key_delta(old, got)
                print(
                    f"against the old golden: {len(added)} keys added, "
                    f"{len(removed)} removed, {len(changed)} changed"
                )
                for unit, key in changed[:10]:
                    print(f"  changed: {unit} {key}")
            os.makedirs(os.path.dirname(args.golden), exist_ok=True)
            if engines is None:
                shutil.copy(produced_path, args.golden)
            else:
                with open(args.golden, "w") as f:
                    json.dump(doc, f, indent=2)
                    f.write("\n")
            print(f"updated {args.golden}")
            return

    with open(args.golden) as f:
        want = pinned_items(json.load(f), args.golden)

    failures = []
    for unit in want:
        if unit not in got:
            failures.append(f"missing result {unit}")
    for unit in got:
        if unit not in want:
            failures.append(f"unexpected result {unit}")
    for unit in want:
        if unit in got:
            diff = first_difference(got[unit], want[unit])
            if diff is not None:
                failures.append(f"{unit} {diff}")

    if failures:
        for f in failures:
            print(f"GOLDEN MISMATCH: {f}")
        print(
            f"\n{len(failures)} mismatch(es) against "
            f"{args.golden}.\nIf the change is intentional, "
            f"regenerate with:\n  python3 tools/check_golden.py "
            f"--smtsim {args.smtsim} --spec {args.spec} "
            f"--golden {args.golden}"
            + (f" --engines {args.engines}" if args.engines else "")
            + " --update"
        )
        raise SystemExit(1)

    pinned = sum(len(items) for items in want.values())
    print(
        f"golden OK: {len(want) - 1} results, {pinned} pinned keys "
        f"bit-identical to {args.golden}"
    )


if __name__ == "__main__":
    main()
