#!/usr/bin/env python3
"""End-to-end gates on the smtsim and tracegen command lines.

Each subcommand drives the built binaries through their flags, files
and exit codes and checks one determinism or robustness invariant:

  record_replay       a recorded run replays to the same results, and
                      a trace naming an unknown benchmark exits 2
  checkpoint_engines  --checkpoint-dir round trip, per engine: a warm
                      run restores the cold run's snapshot and matches
                      the plain run
  warmup_cache        --checkpoint-dir sweeps match plain ones, a
                      second pass restores every warmup from disk, and
                      a corrupted directory falls back to plain runs
  resume_kill         a SIGKILLed --checkpoint-dir sweep resumes to the
                      uninterrupted run's results
  corpus_manifest     tracegen manifests hash-check independently,
                      replay (also through an absolute manifest path),
                      and reject a tampered trace
  bad_flags           malformed numeric flags and removed flags fail,
                      name the flag and write nothing

Each gate works in a fresh --work-dir and deletes nothing outside it.
CMake registers one `cli_<gate>` ctest per subcommand:

  cli_gates.py --smtsim build/smtsim --tracegen build/tracegen \\
      --work-dir build/cli_gates/record_replay record_replay
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
CHECK_BENCH = ROOT / "tools" / "check_bench.py"

# Short windows: enough to exercise every path, cheap enough for the
# sanitizer builds.
SHORT = ["--warmup", "2000", "--measure", "8000"]


class GateFailure(Exception):
    pass


def check(cond, message):
    if not cond:
        raise GateFailure(message)


class Gate:
    def __init__(self, args):
        self.smtsim = str(Path(args.smtsim).resolve())
        self.tracegen = str(Path(args.tracegen).resolve())
        self.work = Path(args.work_dir).resolve()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def run(self, argv, expect_rc=0, **kwargs):
        """Run a command in the work dir; check its exit code."""
        proc = subprocess.run(
            argv,
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=kwargs.pop("timeout", 600),
            **kwargs,
        )
        ok = proc.returncode != 0 if expect_rc is None else (
            proc.returncode == expect_rc
        )
        if not ok:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            want = "nonzero" if expect_rc is None else expect_rc
            raise GateFailure(
                f"{' '.join(map(str, argv))}: exit code "
                f"{proc.returncode}, expected {want}"
            )
        return proc

    def smt(self, *argv, **kwargs):
        return self.run([self.smtsim, *map(str, argv)], **kwargs)

    def tgen(self, *argv, **kwargs):
        return self.run([self.tracegen, *map(str, argv)], **kwargs)

    def check_bench(self, *argv):
        proc = self.run([sys.executable, str(CHECK_BENCH), *map(str, argv)])
        sys.stdout.write(proc.stdout)

    def mkdirs(self, *names):
        for name in names:
            (self.work / name).mkdir()

    def write_spec(self, name, doc):
        path = self.work / name
        path.write_text(json.dumps(doc))
        return path


def load(path):
    with open(path) as f:
        return json.load(f)


def spec(name, workloads, engine="gshare+BTB"):
    return {
        "name": name,
        "warmupCycles": 2000,
        "measureCycles": 8000,
        "workloads": workloads,
        "engines": [engine],
        "policies": ["1.8"],
    }


# ------------------------------------------------------------------ gates


def record_replay(g):
    g.write_spec("rec.json", spec("rec", ["gzip"]))
    g.write_spec("replay.json", spec("replay", [{"trace": "gzip.trc"}]))
    g.smt("--quiet", "--record", "gzip.trc", "rec.json")
    g.smt("--quiet", "replay.json")
    [a] = load(g.work / "BENCH_rec.json")["results"]
    [b] = load(g.work / "BENCH_replay.json")["results"]
    for key in sorted(set(a) | set(b)):
        if key != "workload":
            check(
                a.get(key) == b.get(key),
                f"replayed result differs from the recorded run in {key!r}",
            )
    print(f"record/replay identical in {len(a) - 1} fields:",
          a["ipfc"], a["ipc"])

    # A trace whose header names a benchmark this build does not model
    # is a bad input file: exit 2 with the path and the known names.
    data = (g.work / "gzip.trc").read_bytes()
    (g.work / "gzzz.trc").write_bytes(data.replace(b"gzip", b"gzzz", 1))
    g.write_spec("unknown.json", spec("unknown", [{"trace": "gzzz.trc"}]))
    err = g.smt("--quiet", "--no-json", "unknown.json", expect_rc=2).stderr
    check("gzzz.trc" in err and 'unknown benchmark "gzzz"' in err
          and "known: gzip" in err,
          f"unknown-benchmark trace error is not actionable:\n{err}")
    print("unknown benchmark rejected:", err.strip())


def checkpoint_engines(g):
    engines = g.smt("--list-engines", "--quiet").stdout.split()
    check(len(engines) >= 3, f"too few engines listed: {engines}")
    g.mkdirs("ck-plain", "ck-cold", "ck-warm")
    for i, engine in enumerate(engines):
        ckpt = f"ckpt{i}"
        g.mkdirs(ckpt)
        g.write_spec("ck.json", spec("ck", ["2_MIX"], engine))
        g.smt("--quiet", "--out-dir", "ck-plain", "ck.json")
        g.smt("--quiet", "--out-dir", "ck-cold", "--checkpoint-dir", ckpt,
              "ck.json")
        # Without the journal the warm run simulates its point, so it
        # must restore the cold run's snapshot.
        (g.work / ckpt / "journal_ck.jsonl").unlink()
        g.smt("--quiet", "--out-dir", "ck-warm", "--checkpoint-dir", ckpt,
              "ck.json")
        plain = load(g.work / "ck-plain" / "BENCH_ck.json")["results"]
        warm = load(g.work / "ck-warm" / "BENCH_ck.json")
        reuse = warm["warmupReuse"]
        check(reuse["restoredRuns"] == 1,
              f"{engine}: the warm run did not restore: {reuse}")
        check(warm["results"] == plain,
              f"{engine}: restored run differs from the plain run")
        print(engine, "checkpoint round trip identical:",
              plain[0]["ipfc"], plain[0]["ipc"])


def warmup_cache(g):
    specs = [CONFIGS / "fig2_single_thread.json",
             CONFIGS / "fig4_two_threads.json"]
    g.mkdirs("plain", "cold", "warm", "ckpt")
    g.smt("--quiet", "--out-dir", "plain", *specs)
    g.smt("--quiet", "--out-dir", "cold", "--checkpoint-dir", "ckpt", *specs)
    # Without the resume journals the second pass simulates every
    # point, so it must restore every warmup from disk.
    for journal in (g.work / "ckpt").glob("journal_*.jsonl"):
        journal.unlink()
    g.smt("--quiet", "--out-dir", "warm", "--checkpoint-dir", "ckpt", *specs)
    for bench in ("fig2_single_thread", "fig4_two_threads"):
        plain = load(g.work / "plain" / f"BENCH_{bench}.json")
        cold = load(g.work / "cold" / f"BENCH_{bench}.json")
        warm = load(g.work / "warm" / f"BENCH_{bench}.json")
        check(plain["results"] == cold["results"],
              f"{bench}: checkpointed sweep differs from the plain sweep")
        check(plain["results"] == warm["results"],
              f"{bench}: disk-restored sweep differs from the plain sweep")
        reuse = warm["warmupReuse"]
        check(reuse["warmupRuns"] == 0,
              f"{bench}: the warm pass ran {reuse['warmupRuns']} warmups")
        check(reuse["restoredRuns"] == len(warm["results"]),
              f"{bench}: the warm pass restored {reuse}")
        print(bench, "identical; warm pass:", reuse)
    g.check_bench("--require-warmup-reuse",
                  *[g.work / d / f"BENCH_{b}.json"
                    for d in ("cold", "warm")
                    for b in ("fig2_single_thread", "fig4_two_threads")])

    # Flip one payload byte in every snapshot: each restore must fail
    # its checksum, name the file, and fall back to a plain run.
    for journal in (g.work / "ckpt").glob("journal_*.jsonl"):
        journal.unlink()
    for snap in (g.work / "ckpt").glob("smtckpt_*.ckpt"):
        data = bytearray(snap.read_bytes())
        data[len(data) // 2] ^= 0x01
        snap.write_bytes(bytes(data))
    g.mkdirs("corrupt")
    err = g.smt("--quiet", "--out-dir", "corrupt", "--checkpoint-dir",
                "ckpt", *specs).stderr
    check("checksum mismatch" in err and "smtckpt_" in err,
          f"corrupt snapshot warning is not actionable:\n{err}")
    for bench in ("fig2_single_thread", "fig4_two_threads"):
        plain = load(g.work / "plain" / f"BENCH_{bench}.json")
        corrupt = load(g.work / "corrupt" / f"BENCH_{bench}.json")
        check(plain["results"] == corrupt["results"],
              f"{bench}: sweep over a corrupted directory differs from "
              "the plain sweep")
        check(corrupt["warmupReuse"]["restoredRuns"] == 0,
              f"{bench}: restored a corrupted snapshot: "
              f"{corrupt['warmupReuse']}")
    print("corrupted directory fell back to plain runs:",
          err.strip().splitlines()[0])


def journal_lines(path):
    try:
        with open(path) as f:
            return f.read().count("\n")
    except FileNotFoundError:
        return 0


def resume_kill(g):
    big = CONFIGS / "ablation_big.json"
    journal = g.work / "ckpt" / "journal_ablation_big.jsonl"
    record = g.work / "resume" / "BENCH_ablation_big.json"
    g.mkdirs("ref", "ckpt", "resume", "rerun")
    g.smt("--quiet", "--out-dir", "ref", *SHORT, big)
    ref = load(g.work / "ref" / "BENCH_ablation_big.json")["results"]

    # Pinned to one CPU (so one worker), the first pass is slow enough
    # that the kill lands mid-run.
    cpu = min(os.sched_getaffinity(0))
    first = subprocess.Popen(
        [g.smtsim, "--quiet", "--checkpoint-dir", "ckpt", "--out-dir",
         "resume", *SHORT, str(big)],
        cwd=g.work,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        deadline = time.monotonic() + 600
        while journal_lines(journal) < 40 and first.poll() is None:
            check(time.monotonic() < deadline,
                  "no journal progress in 600 s")
            time.sleep(0.02)
    finally:
        first.send_signal(signal.SIGKILL)
        first.wait()
    with open(journal) as f:
        total = json.loads(f.readline())["points"]
    done = journal_lines(journal) - 1
    print(f"killed the sweep with {done} of {total} points journaled")
    check(total == len(ref), f"journal names {total} points, not {len(ref)}")
    check(done > 0, "no points journaled before the kill")
    check(done < total, "the sweep finished before the kill")
    check(not record.exists(), "record written despite the kill")

    out = g.smt("--quiet", "--checkpoint-dir", "ckpt", "--out-dir", "resume",
                *SHORT, big).stdout
    check(re.search(r"resuming ablation_big: .* already journaled", out),
          f"the resumed run did not report the journal:\n{out}")
    g.check_bench("--require-warmup-reuse", "--spec", big, record)
    resumed = load(record)
    check(resumed["results"] == ref,
          "resumed results differ from the uninterrupted run")
    reuse = resumed["warmupReuse"]
    check(reuse["journaledPoints"] > 0, f"resume skipped nothing: {reuse}")
    print("resumed identically;", reuse)

    g.smt("--quiet", "--checkpoint-dir", "ckpt", "--out-dir", "rerun",
          *SHORT, big)
    rerun = load(g.work / "rerun" / "BENCH_ablation_big.json")
    reuse = rerun["warmupReuse"]
    check(reuse["warmupRuns"] == 0 and reuse["restoredRuns"] == 0,
          f"a fully journaled re-run simulated points: {reuse}")
    check(reuse["journaledPoints"] == len(ref),
          f"re-run journaled {reuse['journaledPoints']} of {len(ref)}")
    check(rerun["results"] == ref, "re-run results differ")
    print("fully journaled re-run simulated nothing:", reuse)
    # The snapshots of 684 points take hundreds of MB.
    shutil.rmtree(g.work / "ckpt")


def corpus_manifest(g):
    manifest = g.work / "corpus" / "manifest.json"
    g.mkdirs("corpus")
    for bench, codec in (("gzip", "raw"), ("mcf", "deflate")):
        g.tgen("--insts", 100000, "--codec", codec, "--manifest",
               "corpus/manifest.json", bench, f"corpus/{bench}.trc")

    doc = load(manifest)
    check(doc["formatVersion"] == 1, f"manifest format {doc}")
    check(sorted(e["benchmark"] for e in doc["traces"]) == ["gzip", "mcf"],
          f"manifest entries {doc['traces']}")
    for entry in doc["traces"]:
        data = (manifest.parent / entry["path"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        check(digest == entry["sha256"],
              f"{entry['path']}: sha256 {digest}, manifest {entry}")
        check(entry["records"] == 100000, f"record count in {entry}")
        check(entry["traceVersion"] == 2, f"trace version in {entry}")
        print(entry["path"], entry["records"], "records, sha256 ok")

    mix = {"corpus": "corpus/manifest.json", "mix": ["gzip", "mcf"]}
    g.write_spec("corpus.json", spec("corpus", [mix]))
    g.smt("--quiet", "corpus.json")
    g.check_bench("--min-results", 1, g.work / "BENCH_corpus.json")

    # An absolute manifest path with a relative trace path must still
    # list the trace relative to the manifest's directory.
    g.mkdirs("abs")
    abs_manifest = g.work / "abs" / "manifest.json"
    g.tgen("--insts", 100000, "--manifest", abs_manifest, "gzip",
           "abs/g.trc")
    [entry] = load(abs_manifest)["traces"]
    check(entry["path"] == "g.trc",
          f"absolute manifest lists {entry['path']!r}, not 'g.trc'")
    g.write_spec("abs.json", spec("abs", [
        {"corpus": str(abs_manifest), "mix": ["gzip"]}]))
    g.smt("--quiet", "--out-dir", "abs", "abs.json")
    g.check_bench("--min-results", 1, g.work / "abs" / "BENCH_abs.json")
    print("absolute manifest lists", entry["path"], "and replays")

    trace = g.work / "corpus" / "gzip.trc"
    data = bytearray(trace.read_bytes())
    data[len(data) // 2] ^= 0x01
    trace.write_bytes(bytes(data))
    err = g.smt("--quiet", "--no-json", "corpus.json", expect_rc=None).stderr
    check("checksum mismatch" in err and "gzip.trc" in err,
          f"tampered trace error is not actionable:\n{err}")
    print("tampered trace rejected:", err.strip())


def bad_flags(g):
    # Valid controls first, so a failure below is the flag's.
    g.tgen("--insts", 1000, "--code-base", "0x400000", "gzip", "ok.trc")
    g.write_spec("one.json", spec("one", ["gzip"]))

    huge = "99999999999999999999999"
    cases = [
        ("tracegen", "--insts", ["--insts", "-1"]),
        ("tracegen", "--insts", ["--insts", huge]),
        ("tracegen", "--seed", ["--seed", "-1"]),
        ("tracegen", "--seed", ["--seed", huge]),
        ("tracegen", "--code-base", ["--code-base", "-0x10"]),
        ("tracegen", "--data-base", ["--data-base", "0x" + "f" * 17]),
        ("smtsim", "--warmup", ["--warmup", huge]),
        ("smtsim", "--measure", ["--measure", "-5"]),
        ("smtsim", "--seed", ["--seed", "1e3"]),
        ("smtsim", "--record-pad", ["--record-pad", " 7"]),
        ("smtsim", "--record-pad", ["--record-pad", "100"]),
        # Removed flags and values: the checkpoint directory is the
        # one store; deflate is always built, blocks are fixed-size.
        ("smtsim", "--save-checkpoint",
         ["--save-checkpoint", "out/x.ckpt"]),
        ("tracegen", "--block-records", ["--block-records", "16"]),
        ("tracegen", "--codec", ["--codec", "auto"]),
    ]
    for tool, flag, argv in cases:
        out = g.work / "out"
        out.mkdir()
        if tool == "tracegen":
            cmd = [g.tracegen, *argv, "gzip", str(out / "bad.trc")]
        else:
            cmd = [g.smtsim, "--out-dir", str(out), *argv, "one.json"]
        err = g.run(cmd, expect_rc=None, timeout=30).stderr
        check(flag in err, f"{tool} {argv}: error does not name {flag}:\n"
              f"{err}")
        check(not any(out.iterdir()), f"{tool} {argv} wrote output")
        out.rmdir()
        print(f"{tool} {' '.join(argv)}: {err.strip()}")


GATES = {f.__name__: f for f in (record_replay, checkpoint_engines,
                                  warmup_cache, resume_kill, corpus_manifest,
                                  bad_flags)}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--smtsim", required=True)
    ap.add_argument("--tracegen", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("gate", choices=sorted(GATES))
    args = ap.parse_args()
    try:
        GATES[args.gate](Gate(args))
    except GateFailure as e:
        print(f"FAIL {args.gate}: {e}")
        return 1
    print(f"OK   {args.gate}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
