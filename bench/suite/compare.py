#!/usr/bin/env python3
"""Compare two directories of strato_bench run records (run.py --out).

    python3 bench/suite/compare.py PARENT_DIR CHANGE_DIR

For every (end-to-end metric, workload) it prints each side's median and
quartiles, the share of pairs the change won, and a verdict against the
bound BENCHMARK.json fixes for the metric:

  improved    the change won at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's spread (interquartile range / median) exceeds
              the bound, unless every change run beats every parent run;
  unchanged   otherwise.

Runs pair up by seed when both sides ran the same seeds, else in the order
of their seeds. Any rise in the share of failed operations is flagged. Only
untraced records count; traced runs carry per-layer numbers, not gated ones.
Exit status 1 when anything regressed or failed more often, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory):
    """{workload: {seed: record}} of the untraced records in `directory`."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("traced"):
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(a, b):
    """Parent/change record pairs: by seed when the seeds match."""
    common = sorted(set(a) & set(b))
    if len(common) == min(len(a), len(b)):
        return [(a[s], b[s]) for s in common]
    return list(zip([a[s] for s in sorted(a)], [b[s] for s in sorted(b)]))


def verdict(pa, lower_better, bound):
    """Verdict and share of pairs won for one (metric, workload)."""
    sign = -1.0 if lower_better else 1.0
    xa = [x for x, _ in pa]
    xb = [y for _, y in pa]
    won = sum(1 for x, y in pa if sign * (y - x) > 0)
    lost = sum(1 for x, y in pa if sign * (y - x) < 0)
    share = won / len(pa)
    qa, qb = quartiles(xa), quartiles(xb)
    med_a, med_b = qa[1], qb[1]
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    worse = sign * (med_a - med_b) / med_a  # > 0: the change is worse
    every_better = max(xb) < min(xa) if lower_better else min(xb) > max(xa)
    if worse > bound:
        v = "regressed"
    elif spread > bound and not every_better:
        v = "unresolved"
    elif share >= 0.9 and abs(med_b - med_a) > (qa[2] - qa[0]) and worse < 0:
        v = "improved"
    else:
        v = "unchanged"
    return v, share, won, lost, qa, qb


def failed_frac(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(args.parent), load(args.change)
    status = 0
    print(f"{'workload':20} {'metric':16} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'won':>5} verdict")
    for w in sorted(set(a) | set(b)):
        if w not in a or w not in b:
            print(f"{w:20} only in {'change' if w in b else 'parent'}")
            continue
        recs = pairs(a[w], b[w])
        for m in spec["end_to_end"]:
            name = m["name"]
            pa = [(ra["metrics"][name], rb["metrics"][name]) for ra, rb in recs]
            v, share, won, lost, qa, qb = verdict(
                pa, m["better"] == "lower", m["bound"])
            if v == "regressed":
                status = 1
            print(f"{w:20} {name:16} "
                  f"{qa[0]:9.4g}/{qa[1]:9.4g}/{qa[2]:9.4g} "
                  f"{qb[0]:9.4g}/{qb[1]:9.4g}/{qb[2]:9.4g} "
                  f"{share:5.0%} {v} ({won} won, {lost} lost of {len(pa)})")
        fa = failed_frac([ra for ra, _ in recs])
        fb = failed_frac([rb for _, rb in recs])
        if fb > fa:
            status = 1
            print(f"{w:20} failed_frac rose: {fa:.3g} -> {fb:.3g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
