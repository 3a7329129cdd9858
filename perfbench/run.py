#!/usr/bin/env python3
"""End-to-end benchmark of the fedsparse federated-learning simulator.

Run from the repository root:

  python3 perfbench/run.py                                  # every workload
  python3 perfbench/run.py --workload paper_adaptive --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --workload paper_adaptive --trace 1   # per-layer metrics
  python3 perfbench/run.py --workload fleet_churn_async --repeat 10  # spread evidence

The first call builds perfbench/ (the repository's library plus the benchmark program)
into $CARGO_TARGET_DIR, default .bench_build/. Each workload run is a fresh
`perfbench` process, so peak RSS is per workload. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exit code is non-zero
when the build or a workload run fails. perfbench/README.md defines the
workloads and metrics.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["paper_adaptive", "fleet_churn_async"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures and builds the benchmark program; returns its path. Exits on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the library sources (CMakeLists.txt, src/) are missing")
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "perfbench-build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "-j4", "--target", "perfbench"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return bdir / "perfbench"


def run_workload(exe, workload, seed, seconds, trace):
    """One fresh benchmark process; returns its parsed result line."""
    scratch = exe.parent / "tmp"
    scratch.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(scratch)]
    env = dict(os.environ, FEDSPARSE_LOG="warn")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} failed (exit code {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: {workload} printed a malformed result")
    return result


def bounds():
    """End-to-end bounds from BENCHMARK.json, when it is present."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def print_table(workload, result):
    status = "ok" if result["correct"] else "CHECK FAILED"
    print(f"{workload}: outputs {status}; rounds attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:16.6g} {m['unit']}")


def repeat(exe, workload, args):
    """Runs one workload K times on seeds seed..seed+K-1 and prints the spread."""
    runs = [run_workload(exe, workload, args.seed + i, args.seconds, args.trace)
            for i in range(args.repeat)]
    limits = bounds() if args.trace == 0 else {}
    summary = {}
    print(f"{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
          f"all outputs correct: {all(r['correct'] for r in runs)}")
    print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} "
          f"{'bound/3':>8s}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": m["unit"]}
        limit = f"{limits[name] / 3:8.3f}" if name in limits else f"{'':8s}"
        print(f"  {name:36s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {limit}")
    return summary


def main():
    # subprocess.run kills and reaps its child when an exception unwinds it, so
    # turning SIGTERM into SystemExit stops the build or workload run too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload K times and print median, quartiles, IQR/median")
    args = ap.parse_args()
    if args.repeat == 1 or args.repeat < 0:
        ap.error("--repeat needs K >= 2")

    exe = build(build_dir())
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat:
        summary = {w: repeat(exe, w, args) for w in names}
        print(json.dumps(summary))
        return 0
    if len(names) == 1:
        print(json.dumps(run_workload(exe, names[0], args.seed, args.seconds, args.trace)))
        return 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        result = run_workload(exe, w, args.seed, args.seconds, args.trace)
        print_table(w, result)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
