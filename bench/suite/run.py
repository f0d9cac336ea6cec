#!/usr/bin/env python3
"""Build strato_bench from source and run the repository benchmark.

One workload, in the form BENCHMARK.json names (run from the repo root):

    python3 bench/suite/run.py --workload W --seed N --seconds S --trace 0|1

prints the full run record (host and build fingerprint, every metric) and,
as its last line, {"correct", "attempted", "failed", "metrics"} where
metrics holds every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1), 0 for a layer the workload bypasses.
A traced run is two processes: an
untraced one, the reference for bench.trace_overhead_frac (the extra CPU
per GiB the spans cost), and a traced one that also writes its spans to
.bench_out/.

Without --workload it runs every workload once and prints their records
merged into one JSON object. --out DIR keeps every record as a file, the
input of compare.py. --smoke is the bench_suite_smoke test.

Exit status is 0 when a result was printed, 2 when none could be: the build
failed, the program crashed or timed out, or a metric was missing.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SMOKE_SECONDS = 0.2
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "strato_bench"


def build():
    """Configure and build incrementally; returns the binary."""
    out = build_dir()
    steps = [["cmake", "-S", str(SUITE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "strato_bench",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}")
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return out / "strato_bench"


def run_binary(binary, workload, seed, seconds, trace_path=None):
    """One strato_bench process; returns its record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload}: {e}")
    if done.returncode not in (0, 1):
        raise BenchError(f"{workload}: exit {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload}: no run record on stdout")


def run_workload(binary, workload, seed, seconds, traced):
    """The record of one workload run: untraced, or the traced run with
    bench.trace_overhead_frac from an untraced reference run."""
    base = run_binary(binary, workload, seed, seconds)
    if not traced:
        return base
    spans = ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl"
    rec = run_binary(binary, workload, seed, seconds, spans)
    rec["correct"] = rec["correct"] and base["correct"]
    rec["layers"]["bench.trace_overhead_frac"] = (
        rec["metrics"]["cpu_s_per_gib"] / base["metrics"]["cpu_s_per_gib"] - 1.0)
    rec["untraced_metrics"] = base["metrics"]
    rec["spans"] = str(spans.relative_to(ROOT))
    return rec


def result_line(rec, spec, traced):
    """The result object BENCHMARK.json's command promises."""
    section = "per_layer" if traced else "end_to_end"
    source = rec["layers"] if traced else rec["metrics"]
    metrics = {}
    for m in spec[section]:
        v = source.get(m["name"], 0.0 if traced else None)
        if v is None or not math.isfinite(v):
            raise BenchError(f"{rec['workload']}: metric {m['name']} missing")
        if section == "end_to_end" and v <= 0:
            raise BenchError(f"{rec['workload']}: {m['name']} = {v}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"correct": bool(rec["correct"]) and rec["failed"] == 0,
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


def save(out_dir, rec):
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "traced" if rec["traced"] else "untraced"
    path = out_dir / f"{rec['workload']}-seed{rec['seed']}-{kind}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")


def smoke(binary, spec):
    """bench_suite_smoke: every workload, untraced and traced, runs clean,
    reports every end-to-end metric, and every per-layer metric is measured
    by some workload."""
    start = time.monotonic()
    measured = set()
    for w in workload_names(spec):
        for traced in (False, True):
            rec = run_workload(binary, w, 424242, SMOKE_SECONDS, traced)
            line = result_line(rec, spec, traced)
            if not line["correct"]:
                raise BenchError(f"{w}: {rec['errors']}")
            measured |= set(rec["layers"])
    unmeasured = [m["name"] for m in spec["per_layer"]
                  if m["name"] not in measured]
    if unmeasured:
        raise BenchError(f"no workload reports {unmeasured}")
    log(f"smoke passed in {time.monotonic() - start:.1f} s")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=424242)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="keep each run record here")
    p.add_argument("--bin", type=Path, help="use this strato_bench binary")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    try:
        spec = benchmark_spec()
        if args.workload and args.workload not in workload_names(spec):
            raise BenchError(f"unknown workload {args.workload}")
        binary = args.bin or build()
        if args.smoke:
            smoke(binary, spec)
            return 0
        seconds = args.seconds or spec["run_seconds"]
        workloads = [args.workload] if args.workload else workload_names(spec)
        records = {}
        for w in workloads:
            rec = run_workload(binary, w, args.seed, seconds, args.trace == 1)
            line = result_line(rec, spec, args.trace == 1)
            if args.out:
                save(args.out, rec)
            records[w] = rec
        if args.workload:
            print(json.dumps(records[args.workload]))
            print(json.dumps(line))
        else:
            print(json.dumps(records, indent=1))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
