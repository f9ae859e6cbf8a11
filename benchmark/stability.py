#!/usr/bin/env python3
"""Calibrate the benchmark's bounds and compare two sets of runs.

    python3 benchmark/stability.py --repeat N [--seed S | --vary-seed]
                                   [--seconds T] [--workload W]... [--save F]
    python3 benchmark/stability.py --compare BASE HEAD

--repeat runs the suite N times (each workload in its own process, through
run.py) and reports, per (workload, end-to-end metric), the median, the
quartiles, the spread (q3 - q1) / median and the largest relative deviation
of one run from the median. It exits 1 when a deviation exceeds the
metric's bound; setup_s is reported but not gated on spread, since each run
already takes the median of many set-ups and the bound only limits how far
its median may move. --save keeps the raw values for --compare.

--compare BASE HEAD takes two files written by --repeat --save (BASE from
the parent commit, HEAD from the change, same settings) and applies the
gain rule of the choosing-metrics method: a gain needs HEAD to win at least
9 of every 10 run pairs and a median gap larger than BASE's own q3 - q1. A
metric whose BASE spread exceeds its bound is "unresolved" unless every
HEAD run beats every BASE run. HEAD worse than BASE by more than the bound
is a regression (exit 1).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: run.py exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def repeat(args):
    s = spec()
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    values = {w: {} for w in workloads}
    seeds = []
    for i in range(args.repeat):
        seed = args.seed + i if args.vary_seed else args.seed
        seeds.append(seed)
        for w in workloads:
            for name, v in run_once(w, seed, args.seconds).items():
                values[w].setdefault(name, []).append(v)
            print(f"run {i + 1}/{args.repeat} {w} seed {seed}: " +
                  ", ".join(f"{k}={v[-1]:.6g}"
                            for k, v in values[w].items()), flush=True)
    ok = True
    print(f"\n{'workload':22s} {'metric':18s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'maxdev':>8s} {'bound':>6s}")
    for w in workloads:
        for m in s["end_to_end"]:
            v = values[w][m["name"]]
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med
            maxdev = max(abs(x - med) for x in v) / med
            gated = m["name"] != "setup_s"
            status = "ok"
            if gated and maxdev > m["bound"]:
                status, ok = "FAIL", False
            elif not gated:
                status = "info"
            print(f"{w:22s} {m['name']:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {maxdev:8.4f} {m['bound']:6.2f} {status}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump({"seeds": seeds, "seconds": args.seconds,
                       "values": values}, f, indent=1)
    return 0 if ok else 1


def compare(base_path, head_path):
    s = spec()
    with open(base_path, encoding="utf-8") as f:
        base = json.load(f)
    with open(head_path, encoding="utf-8") as f:
        head = json.load(f)
    regression = False
    print(f"{'workload':22s} {'metric':18s} {'base':>12s} {'head':>12s} "
          f"{'change':>8s} {'wins':>7s} verdict")
    for w, metrics in base["values"].items():
        for m in s["end_to_end"]:
            b = metrics[m["name"]]
            h = head["values"][w][m["name"]]
            sign = 1.0 if m["better"] == "higher" else -1.0
            q1, b_med, q3 = quartiles(b)
            h_med = statistics.median(h)
            change = sign * (h_med - b_med) / b_med  # > 0 means better
            pairs = list(zip(b, h))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            every_better = all(sign * (y - x) > 0 for x in b for y in h)
            if change < -m["bound"]:
                verdict, regression = "regression", True
            elif (q3 - q1) / b_med > m["bound"] and not every_better:
                verdict = "unresolved"
            elif wins >= 0.9 * len(pairs) and abs(h_med - b_med) > q3 - q1:
                verdict = "gain"
            else:
                verdict = "within bound"
            print(f"{w:22s} {m['name']:18s} {b_med:12.6g} {h_med:12.6g} "
                  f"{change:+8.4f} {wins:3d}/{len(pairs):<3d} {verdict}")
    return 1 if regression else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--repeat", type=int, metavar="N")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--vary-seed", action="store_true",
                        help="use seeds S, S+1, ... instead of S every time")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--save")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.repeat < 1:
        parser.error("--repeat needs N >= 1")
    return repeat(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        print(f"stability: {e}", file=sys.stderr)
        sys.exit(2)
