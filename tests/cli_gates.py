#!/usr/bin/env python3
"""End-to-end gates on the smtsim and tracegen command lines.

Each subcommand drives the built binaries through their flags, files
and exit codes and checks one determinism or robustness invariant:

  record_replay       a recorded run replays to the same results,
                      tracegen traces in both codecs replay as one
                      2-thread mix, and a trace naming an unknown
                      benchmark or tampered by one byte exits 2
                      naming the file
  checkpoint_engines  --checkpoint-dir round trip, per engine: a warm
                      run restores the cold run's snapshot and matches
                      the plain run
  warmup_cache        --checkpoint-dir sweeps match plain ones, a
                      second pass restores every warmup from disk, a
                      rebuilt binary runs its own warmups, and a
                      corrupted directory falls back to plain runs
  bad_flags           malformed numeric flags and removed flags fail,
                      name the flag and write nothing; a directory
                      flag naming a regular file exits 2 naming its
                      role

Each gate works in a fresh --work-dir and deletes nothing outside it.
CMake registers one `cli_<gate>` ctest per subcommand:

  cli_gates.py --smtsim build/smtsim --tracegen build/tracegen \\
      --work-dir build/cli_gates/record_replay record_replay
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
CHECK_BENCH = ROOT / "tools" / "check_bench.py"


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

    # tracegen traces in both block codecs replay as one 2-thread mix.
    traces = {"tg_gzip.trc": ("gzip", "raw"),
              "tg_mcf.trc": ("mcf", "deflate")}
    for path, (bench, codec) in traces.items():
        g.tgen("--insts", 100000, "--codec", codec, bench, path)
    g.write_spec("mix.json", spec("mix", [{"trace": list(traces)}]))
    g.smt("--quiet", "mix.json")
    g.check_bench("--min-results", 1, g.work / "BENCH_mix.json")

    # One flipped byte mid-file is a corrupt payload: the deflate
    # block fails to inflate, and the raw record breaks the chain of
    # next pcs. Either exits 2 naming the file, never a fetch panic.
    for path in traces:
        data = bytearray((g.work / path).read_bytes())
        data[len(data) // 2] ^= 0x01
        (g.work / path).write_bytes(bytes(data))
        tamper = spec("tamper", [{"trace": path}])
        tamper["measureCycles"] = 1000000
        g.write_spec("tamper.json", tamper)
        err = g.smt("--quiet", "--no-json", "tamper.json",
                    expect_rc=2).stderr
        check(path in err and "corrupt payload" in err,
              f"tampered {path} error is not actionable:\n{err}")
        print("tampered trace rejected:", err.strip())


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
    # Short windows: every check compares one run with another, so the
    # specs' full windows (and their claims, which the overrides skip)
    # add time, not coverage.
    window = ["--warmup", "2000", "--measure", "8000"]
    specs = [*window, CONFIGS / "fig2_single_thread.json",
             CONFIGS / "fig4_two_threads.json"]
    fig4_spec = [*window, specs[-1]]
    g.mkdirs("plain", "cold", "warm", "ckpt")
    g.smt("--quiet", "--out-dir", "plain", *specs)
    g.smt("--quiet", "--out-dir", "cold", "--checkpoint-dir", "ckpt", *specs)
    # The second pass must restore every warmup from disk.
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

    # Snapshots are keyed by the binary that wrote them. A copy of
    # smtsim with one byte appended still runs, but is another binary:
    # it must miss every snapshot and run its own warmups. fig4's grid
    # holds every warmup of fig2's.
    fig4 = "fig4_two_threads"
    rebuilt = g.work / "smtsim-rebuilt"
    shutil.copy2(g.smtsim, rebuilt)
    with open(rebuilt, "ab") as f:
        f.write(b"\0")
    g.mkdirs("rebuilt", "again")
    g.run([rebuilt, "--quiet", "--out-dir", "rebuilt", "--checkpoint-dir",
           "ckpt", *fig4_spec])
    # The original binary still finds its own snapshots.
    g.smt("--quiet", "--out-dir", "again", "--checkpoint-dir", "ckpt",
          *fig4_spec)
    plain = load(g.work / "plain" / f"BENCH_{fig4}.json")
    other = load(g.work / "rebuilt" / f"BENCH_{fig4}.json")
    again = load(g.work / "again" / f"BENCH_{fig4}.json")
    reuse = other["warmupReuse"]
    check(reuse["cacheDiskHits"] == 0
          and reuse["warmupRuns"] == reuse["warmupGroups"],
          f"the rebuilt binary reused another binary's snapshots: {reuse}")
    check(other["results"] == plain["results"],
          "the rebuilt binary's sweep differs from the plain sweep")
    print("rebuilt binary ran its own warmups:", reuse)
    reuse = again["warmupReuse"]
    check(reuse["warmupRuns"] == 0
          and reuse["restoredRuns"] == len(again["results"]),
          f"the original binary did not restore every point after the "
          f"rebuilt one ran: {reuse}")
    check(again["results"] == plain["results"],
          "the original binary's re-sweep differs from the plain sweep")
    stray = sorted(p.name for p in (g.work / "ckpt").iterdir()
                   if not p.name.startswith("smtckpt_"))
    check(not stray, f"the checkpoint directory holds more than "
          f"snapshots: {stray}")

    # Flip one payload byte in every snapshot: each restore must fail
    # its checksum, name the file, and fall back to a plain run.
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
        ("tracegen", "--insts", ["--insts", "0"]),
        # Removed flags and values: the checkpoint directory is the
        # one store; deflate is always built, blocks are fixed-size;
        # traces are named by path, not through a manifest.
        ("smtsim", "--save-checkpoint",
         ["--save-checkpoint", "out/x.ckpt"]),
        ("tracegen", "--block-records", ["--block-records", "16"]),
        ("tracegen", "--codec", ["--codec", "auto"]),
        ("tracegen", "--manifest", ["--manifest", "m.json"]),
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
    check(not (g.work / "m.json").exists(), "tracegen --manifest wrote m.json")

    # A directory flag naming a regular file fails before simulating,
    # and the message names the flag's role.
    (g.work / "afile").write_text("not a directory\n")
    for flag, role in (("--out-dir", "output directory"),
                       ("--checkpoint-dir", "checkpoint directory")):
        out = g.work / "out"
        out.mkdir()
        argv = ["--out-dir", out, flag, "afile", "one.json"]
        err = g.smt(*argv, expect_rc=2, timeout=30).stderr
        want = f'{role} "afile" is not writable'
        check(want in err, f"smtsim {flag} afile: error does not say "
              f"{want!r}:\n{err}")
        check(not any(out.iterdir()), f"smtsim {flag} afile wrote output")
        out.rmdir()
        print(f"smtsim {flag} afile: {err.strip()}")


GATES = {f.__name__: f for f in (record_replay, checkpoint_engines,
                                  warmup_cache, bad_flags)}


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
