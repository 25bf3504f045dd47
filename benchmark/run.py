#!/usr/bin/env python3
"""Entry point of the one-machine benchmark (see README.md).

Run one workload (builds sensei_bench first, from this checkout):
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--smoke] [--out FILE]
Record sets of runs, one result JSON per run; with several directories the
runs alternate between them, so every set samples the same machine states:
  python3 benchmark/run.py record DIR [DIR...] [--runs 5] [--seeds 1,2,...]
                           [--seconds S] [--traced 1] [--workloads a,b]
Spread of each end-to-end metric over a recorded set, against its bound:
  python3 benchmark/run.py spread DIR
Compare two recorded sets (refuses sets from different hosts):
  python3 benchmark/run.py compare DIR_A DIR_B

Build output goes to standard error, so the last line of standard output
is always sensei_bench's result line.
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "sensei_bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
# Host fields two results must share to be compared; git_sha may differ.
HOST_KEYS = ("nproc", "affinity", "cpu_model", "compiler", "build_type",
             "backend", "threads", "trace_clock")
# Metrics a deterministic simulation reproduces exactly for a given seed.
SIMULATED = ("qoe_mean", "qoe_p10", "rebuffer_ratio", "served_rate",
             "recovery_rate", "sensei_qoe_ratio")


def build():
    """Configures and builds sensei_bench; exits 1 when that fails."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sensei_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("error: building sensei_bench failed")


def git_sha():
    """HEAD of the checkout, "+dirty" when tracked files differ; "" outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return ""
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = git("diff", "--quiet", "HEAD").returncode != 0
    except OSError:
        return ""
    return sha + ("+dirty" if dirty else "")


def run_bench(args, stdout=None):
    sha = git_sha()
    cmd = [str(BINARY), *args] + (["--git-sha", sha] if sha else [])
    return subprocess.run(cmd, stdout=stdout).returncode


def load(directory):
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        data["_file"] = path.name
        results.append(data)
    if not results:
        sys.exit(f"error: no result files in {directory}")
    return results


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def by_workload(results, traced):
    groups = {}
    for r in results:
        if r["trace"] == traced:
            groups.setdefault(r["workload"], []).append(r)
    return groups


def record(argv):
    directories, opts = [], {}
    args = iter(argv)
    for arg in args:
        if arg.startswith("--"):
            opts[arg] = next(args, "")
        else:
            directories.append(Path(arg))
    runs = int(opts.get("--runs", "5"))
    seeds = [int(s) for s in opts.get("--seeds", "").split(",") if s] or [90210] * runs
    seconds = opts.get("--seconds", str(SPEC["run_seconds"]))
    workloads = [w for w in opts.get("--workloads", "").split(",") if w] or WORKLOADS
    traced = int(opts.get("--traced", "1"))
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
    build()
    status = 0
    for workload in workloads:
        plan = [(i, seed, 0) for i, seed in enumerate(seeds)]
        plan += [(i, seeds[0], 1) for i in range(traced)]
        for i, seed, trace in plan:
            for directory in directories:
                name = f"{workload}_{'trace' if trace else 'run'}{i}.json"
                print(f"record {directory / name} seed={seed}", file=sys.stderr)
                code = run_bench(["--workload", workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", str(trace),
                                  "--out", str(directory / name)],
                                 stdout=subprocess.DEVNULL)
                status = status or code
    return status


def spread(argv):
    worst = 0.0
    for workload, runs in sorted(by_workload(load(argv[0]), False).items()):
        print(f"{workload} ({len(runs)} runs)")
        for name, spec in E2E.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = quartile_spread(values)
            verdict = "ok" if name == "setup_s" or s <= spec["bound"] / 3 else "WIDE"
            if name != "setup_s":
                worst = max(worst, s / spec["bound"])
            print(f"  {name:18s} median {statistics.median(values):<14.6g} "
                  f"spread {100 * s:6.2f}%  bound {100 * spec['bound']:5.1f}%  {verdict}")
    print(f"largest spread / bound: {worst:.3f} (target < 0.333)")
    return 0


def compare(argv):
    a, b = load(argv[0]), load(argv[1])
    hosts = {json.dumps({k: r["host"][k] for k in HOST_KEYS}, sort_keys=True)
             for r in a + b}
    if len(hosts) != 1:
        print("refusing to compare: host blocks differ", file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        return 2
    status = 0
    ga, gb = by_workload(a, False), by_workload(b, False)
    for workload in sorted(set(ga) & set(gb)):
        print(workload)
        for name, spec in E2E.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in ga[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in gb[workload])
            change = (mb - ma) / ma if ma else 0.0
            worse = -change if spec["better"] == "higher" else change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            status = status or (verdict != "ok")
            print(f"  {name:18s} {ma:<14.6g} -> {mb:<14.6g} {100 * change:+7.2f}%  "
                  f"bound {100 * spec['bound']:.1f}%  {verdict}")
        pairs = [(x, y) for x in ga[workload] for y in gb[workload] if x["seed"] == y["seed"]]
        same = all(x["output_digest"] == y["output_digest"] and
                   all(x["metrics"][m]["value"] == y["metrics"][m]["value"] for m in SIMULATED)
                   for x, y in pairs)
        status = status or not same
        print(f"  simulated metrics and output_digest identical on {len(pairs)} same-seed "
              f"pairs: {'yes' if same else 'NO'}")
    ta, tb = by_workload(a, True), by_workload(b, True)
    for workload in sorted(set(ta) & set(tb)):
        x, y = ta[workload][0]["metrics"], tb[workload][0]["metrics"]
        calls = [m for m in x if m.endswith((".calls", ".tables_created"))]
        differing = [m for m in calls if x[m]["value"] != y[m]["value"]]
        status = status or bool(differing)
        shares = [m for m in x if m.endswith(".share")]
        drift = max(abs(x[m]["value"] - y[m]["value"]) for m in shares)
        print(f"{workload} traced: calls identical: {'yes' if not differing else differing}; "
              f"largest share change {100 * drift:.2f} points")
    return status


def main(argv):
    commands = {"record": record, "spread": spread, "compare": compare}
    if argv and argv[0] in commands:
        if len(argv) < 2:
            sys.exit(__doc__)
        return commands[argv[0]](argv[1:])
    build()
    return run_bench(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
