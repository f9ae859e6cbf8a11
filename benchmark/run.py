#!/usr/bin/env python3
"""Campaign benchmark: build the Release harness, run workloads, check them.

    python3 benchmark/run.py [--workload NAME] [--seed S] [--seconds T]
                             [--trace [0|1]] [--smoke] [--out FILE]

Without --workload the whole suite runs, one workload process after
another. Every metric is printed with its unit and reported value, and with
the median, q1, q3 and n of its samples; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 reports the per-layer metrics of
a traced run instead of the end-to-end ones and writes a Chrome trace-event
file beside the result file. The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "issrtl_bench"
DEFAULT_SEED = 2015
# Per-process time limit once the harness is built (the build itself gets
# BUILD_TIMEOUT_S).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def build():
    """Configure and build the Release harness; returns the compiler path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        [cmake, "--build", str(BUILD_DIR), "--target", "issrtl_bench",
         "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise RuntimeError("refusing to measure a non-Release build")
    return cache.get("CMAKE_CXX_COMPILER", "")


def host_record(compiler):
    cpu_model, flags = "unknown", ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and cpu_model == "unknown":
                cpu_model = line.split(":", 1)[1].strip()
            elif line.startswith("flags") and not flags:
                flags = line.split(":", 1)[1]
    except OSError:
        pass
    version = "unknown"
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, check=False)
        if proc.returncode == 0 and proc.stdout:
            version = proc.stdout.splitlines()[0]
    commit, dirty = None, None
    if shutil.which("git"):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, check=False)
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=False).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, check=False).stdout
            dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "avx512f": "avx512f" in flags.split(),
        "compiler": version,
        "build_type": "Release",
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_harness(workload, seed, seconds, trace, smoke, spans):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spans", str(spans)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: harness exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(raw, expected, seed, trace, smoke):
    """Output checks; returns a list of failure messages."""
    w = raw["workload"]
    bad = []
    by_campaign = {}
    for rep in raw["reps"]:
        by_campaign.setdefault(rep["campaign"], set()).add(rep["hash"])
    for p, hashes in sorted(by_campaign.items()):
        if len(hashes) != 1:
            bad.append(f"{w}: reps of sub-campaign {p} disagree: "
                       f"{sorted(hashes)}")
    for rep in raw["traced_reps"]:
        if rep["hash"] not in by_campaign.get(rep["campaign"], set()):
            bad.append(f"{w}: traced outcome_hash {rep['hash']} of "
                       f"sub-campaign {rep['campaign']} differs from the "
                       "untraced one")
    for key in ("incomplete_sites", "engine_errors", "truncated_reps"):
        if raw[key] != 0:
            bad.append(f"{w}: {key} = {raw[key]}")
    if seed == DEFAULT_SEED and not smoke:
        pin = expected[w]
        if raw["outcome_hash"] != pin["outcome_hash"]:
            bad.append(f"{w}: outcome_hash {raw['outcome_hash']} != pinned "
                       f"{pin['outcome_hash']}")
        got = {m: {k: int(v) for k, v in c.items()}
               for m, c in raw["counts"].items()}
        if got != pin["counts"]:
            bad.append(f"{w}: outcome counts {got} != pinned {pin['counts']}")
    if trace:
        if not raw["spans_written"]:
            bad.append(f"{w}: span file could not be written")
        if raw["engine_threads"] > (os.cpu_count() or 1):
            bad.append(f"{w}: {raw['engine_threads']} engine threads > nproc")
        if raw["layers"]["trace.coverage"] < 0.95:
            bad.append(f"{w}: trace.coverage "
                       f"{raw['layers']['trace.coverage']:.4f} < 0.95")
    return bad


def timed_reps(raw):
    """Untimed warm-up (the first rep) excluded."""
    return raw["reps"][1:]


def fastest_seconds(raw):
    """Sum over sub-campaigns of each one's fastest timed rep."""
    best = {}
    for rep in timed_reps(raw):
        p = rep["campaign"]
        best[p] = min(best.get(p, rep["s"]), rep["s"])
    return sum(best.values())


def extra_unit(name):
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.rsplit(".", 1)[0].endswith(suffix) or name.endswith(suffix):
            return unit
    return "fraction"


def metric_rows(raw, spec, trace):
    """(name, unit, value, samples, reported) for every metric of a run.

    injections_per_s counts every sub-campaign's sites over the sum of each
    one's fastest rep: a campaign is deterministic, so its reps do identical
    work and host interference only ever adds time. Its samples are the
    per-rep rates. setup_s reports the median of its set-ups. reported is
    False for the traced extras, which are printed but are not in
    BENCHMARK.json.
    """
    if trace:
        rows = [(m["name"], m["unit"], raw["layers"][m["name"]],
                 [raw["layers"][m["name"]]], True) for m in spec["per_layer"]]
        rows += [(name, extra_unit(name), value, [value], False)
                 for name, value in raw["extra"].items()]
        return rows
    sites = raw["campaign_sites"]
    ips = [sites[rep["campaign"]] / rep["s"] for rep in timed_reps(raw)]
    values = {
        "injections_per_s": (sum(sites) / fastest_seconds(raw), ips),
        "setup_s": (statistics.median(raw["setup_s"]), raw["setup_s"]),
        "peak_rss_mb": (raw["peak_rss_mb"], [raw["peak_rss_mb"]]),
    }
    return [(m["name"], m["unit"], *values[m["name"]], True)
            for m in spec["end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1 s, no pinned verdicts")
    parser.add_argument("--out", help="result JSON (default: under "
                        ".bench_build/results)")
    args = parser.parse_args()
    trace = args.trace == "1"

    spec = load_json(ROOT / "BENCHMARK.json")
    expected = load_json(BENCH_DIR / "expected.json")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload}; one of {names}")
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    compiler = build()
    host = host_record(compiler)
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload or 'suite'}_s{args.seed}_t{int(trace)}"
    out_path = Path(args.out) if args.out else results_dir / f"{tag}.json"

    failures, metrics, runs = [], {}, {}
    attempted = failed = 0
    print(f"host: {json.dumps(host)}")
    for w in workloads:
        spans = results_dir / f"trace_{w}_s{args.seed}.json"
        t0 = time.monotonic()
        raw = run_harness(w, args.seed, seconds, trace, args.smoke, spans)
        runs[w] = raw
        failures += check(raw, expected, args.seed, trace, args.smoke)
        sites = raw["campaign_sites"]
        reps = raw["reps"] + raw["traced_reps"]
        attempted += sum(sites[rep["campaign"]] for rep in reps)
        failed += raw["engine_errors"] + raw["incomplete_sites"]
        print(f"== {w}: {len(sites)} sub-campaigns of {sites} sites, "
              f"{len(reps)} reps, seed {args.seed}, "
              f"{time.monotonic() - t0:.1f} s")
        for name, unit, value, samples, reported in metric_rows(raw, spec,
                                                                trace):
            q1, med, q3 = quartiles(samples)
            print(f"  {name:30s} {value:14.6g} {unit:9s} median {med:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n {len(samples)}"
                  f"{'' if reported else '  (extra)'}")
            if reported:
                key = name if len(workloads) == 1 else f"{w}/{name}"
                metrics[key] = {"value": value, "unit": unit}
        if trace:
            print(f"  spans: {spans}")

    if not trace and {"rtl_permanent_iu", "iss_regfile"} <= runs.keys():
        def per_injection_s(raw):
            return fastest_seconds(raw) / sum(raw["campaign_sites"])
        ratio = (per_injection_s(runs["rtl_permanent_iu"]) /
                 per_injection_s(runs["iss_regfile"]))
        print(f"paper.rtl_iss_cost_ratio {ratio:.1f}  (informational, "
              "ungated: s/injection rtl_permanent_iu / iss_regfile; the "
              "paper reports ~85x. The RTL model is unvalidated against "
              "silicon, so no accuracy error figure is given.)")

    host["loadavg_end"] = list(os.getloadavg())
    for msg in failures:
        log("CHECK FAILED: " + msg)
    summary = {"correct": not failures, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"host": host, "seed": args.seed, "trace": trace,
                   "smoke": args.smoke, "seconds": seconds,
                   "failures": failures, "summary": summary, "runs": runs},
                  f, indent=1)
    print(f"result: {out_path}")
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"benchmark error: {e}")
        sys.exit(2)
