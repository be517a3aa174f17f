#!/usr/bin/env python3
"""Paired perfbench runs: a parent checkout against a change checkout.

Runs `python3 perfbench/run.py` alternately from two checkouts of the
repository, N pairs, and summarises every metric of the final JSON
lines as README table rows: the median with the quartiles in brackets
for each side, the change/parent ratio of the medians and the pairs
the change won. Each checkout builds into its own CARGO_TARGET_DIR
(default <checkout>/.bench_build). Pair i runs the parent first when
i is even and the change first when it is odd, so a drift in host
speed hits both sides alike.

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload paper_sweep --seed 0 --pairs 10

--trace 1 compares the per-layer metrics instead. Below the table,
one line per metric says whether the change won at least 9 pairs in
10 and whether the gap between the medians exceeds the parent's
interquartile range. The script only reads perfbench/ and
BENCHMARK.json. --self-test checks the summary arithmetic on canned
samples without running the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(xs):
    """(q1, median, q3), linear interpolation between closest ranks."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better):
    """Pairs where the change is strictly better than its parent run."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def fmt(x):
    """Four significant digits, the precision of the README tables."""
    return f"{x:.4g}"


def summarise(label, metric, parent, change, better):
    """One README table row plus the claim-check line for a metric."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    ratio = cm / pm if pm else float("nan")
    won = wins(parent, change, better)
    n = len(parent)
    row = (f"| {label} | `{metric}` | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
           f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {ratio:.2f}× "
           f"| {won}/{n} |")
    gap = cm - pm if better == "higher" else pm - cm
    iqr = p3 - p1
    verdict = ("improves" if won * 10 >= 9 * n and gap > iqr
               else "not shown")
    check = (f"{metric}: change better in {won}/{n} pairs, median gap "
             f"{fmt(gap)} against parent IQR {fmt(iqr)}: {verdict}")
    return row, check


def schedule(pairs):
    """Run order: (pair, side) with the first side alternating."""
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.extend((i, s) for s in sides)
    return order


def run_once(checkout, target, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {checkout} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def directions(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        declared = json.load(f)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in declared[key]}


def self_test():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    parent = [4.0, 4.4, 4.2, 6.3, 4.0, 4.1, 4.3, 4.2, 4.5, 4.1]
    change = [3.0, 3.1, 2.9, 3.2, 4.2, 2.8, 3.0, 3.1, 3.0, 2.9]
    assert wins(parent, change, "lower") == 9
    assert wins(parent, change, "higher") == 1
    row, check = summarise("paper_sweep (10, 0)", "setup_s", parent,
                           change, "lower")
    assert row == ("| paper_sweep (10, 0) | `setup_s` | 4.2 [4.1, 4.375] "
                   "| 3 [2.925, 3.1] | 0.71× | 9/10 |"), row
    assert check.endswith("median gap 1.2 against parent IQR 0.275: "
                          "improves"), check
    # Nine wins but a gap inside the parent's spread proves nothing.
    _, check = summarise("x", "sim_mcps", [1.0, 1.5, 1.0, 1.5],
                         [1.1, 1.6, 1.1, 1.6], "higher")
    assert check.endswith("not shown"), check
    assert schedule(2) == [(0, "parent"), (0, "change"),
                           (1, "change"), (1, "parent")]
    print("perf_pairs self-test passed")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check the summary arithmetic and exit")
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--parent-target", help="parent CARGO_TARGET_DIR "
                    "(default <parent>/.bench_build)")
    ap.add_argument("--change-target", help="change CARGO_TARGET_DIR "
                    "(default <change>/.bench_build)")
    ap.add_argument("--workload", default="paper_sweep")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    targets = {s: os.path.abspath(getattr(args, f"{s}_target") or
                                  os.path.join(checkouts[s], ".bench_build"))
               for s in checkouts}
    samples = {"parent": [], "change": []}
    incorrect = 0
    for i, side in schedule(args.pairs):
        out = run_once(checkouts[side], targets[side], args)
        incorrect += not out["correct"]
        samples[side].append({k: v["value"]
                              for k, v in out["metrics"].items()})
        print(f"pair {i + 1}/{args.pairs} {side}: correct="
              f"{out['correct']}", file=sys.stderr, flush=True)

    better = directions(checkouts["change"])
    label = f"{args.workload} ({args.pairs}, {args.seed})"
    print("| Workload (pairs, seed) | Metric | parent | change | ratio "
          "| wins |")
    print("|---|---|---|---|---|---|")
    checks = []
    for metric in samples["parent"][0]:
        parent = [s[metric] for s in samples["parent"]]
        change = [s[metric] for s in samples["change"]]
        row, check = summarise(label, metric, parent, change,
                               better.get(metric, "lower"))
        print(row)
        checks.append(check)
    print()
    for check in checks:
        print(check)
    print(f"{incorrect} of {2 * args.pairs} runs not correct")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
