#!/usr/bin/env python3
"""Golden-stats regression check.

Re-runs an experiment spec through smtsim and diffs the produced
BENCH record's IPFC/IPC against a committed golden record bit-exactly
(the simulator is deterministic; any drift is a behaviour change that
must be explicit). Run with --update to regenerate the golden file
after an intentional change:

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


def result_key(r):
    return (
        r["workload"],
        r["engine"],
        r.get("policyString", ""),
        r.get("variant", ""),
    )


def load_results(path, engines=None):
    with open(path) as f:
        doc = json.load(f)
    results = {}
    for r in doc.get("results", []):
        if engines is not None and r["engine"] not in engines:
            continue
        key = result_key(r)
        if key in results:
            raise SystemExit(f"{path}: duplicate result key {key}")
        results[key] = r
    return doc, results


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
            raise SystemExit(
                f"smtsim failed with exit code {proc.returncode}"
            )

        produced = [
            f for f in os.listdir(tmp) if f.startswith("BENCH_")
        ]
        if len(produced) != 1:
            raise SystemExit(
                f"expected exactly one BENCH record, got {produced}"
            )
        produced_path = os.path.join(tmp, produced[0])

        if args.update:
            os.makedirs(os.path.dirname(args.golden), exist_ok=True)
            if engines is None:
                shutil.copy(produced_path, args.golden)
            else:
                with open(produced_path) as f:
                    doc = json.load(f)
                doc["results"] = [
                    r
                    for r in doc.get("results", [])
                    if r["engine"] in engines
                ]
                # The sweep-wide warmupReuse block describes the full
                # grid, not the committed subset.
                doc.pop("warmupReuse", None)
                with open(args.golden, "w") as f:
                    json.dump(doc, f, indent=2)
                    f.write("\n")
            print(f"updated {args.golden}")
            return

        _, got = load_results(produced_path, engines)
        _, want = load_results(args.golden, engines)

        failures = []
        for key in want:
            if key not in got:
                failures.append(f"missing result {key}")
        for key in got:
            if key not in want:
                failures.append(f"unexpected result {key}")
        for key in sorted(set(got) & set(want)):
            for metric in ("ipfc", "ipc"):
                g, w = got[key][metric], want[key][metric]
                if g != w:
                    failures.append(
                        f"{key} {metric}: got {g!r}, golden {w!r}"
                    )

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

        print(
            f"golden OK: {len(want)} results bit-identical to "
            f"{args.golden}"
        )


if __name__ == "__main__":
    main()
