#!/usr/bin/env python3
"""Compare a fresh bench JSON with its committed baseline, field by tag.

Every JSON bench tags its own fields (bench/bench_json.h) and lists the
compared ones in a top-level "fields" map:
  det     must match exactly;
  timing  a higher-is-better rate: more than BENCH_TOL (default 0.50)
          below the baseline is a regression, checked only when both
          runs report the same hardware_concurrency, since timings from
          unlike hosts are not comparable;
  any field the map does not name is info and is not compared.
The top level is compared first, then the "results" rows by position. A
fresh "fields" map that differs from the committed one is a mismatch, so
a schema change needs `scripts/check_bench.sh --update`.

  bench_compare.py COMMITTED FRESH   exit 1 on any mismatch or regression
  bench_compare.py --selftest        seed faults into in-memory copies of
                                     the committed BENCH_*.json and a
                                     synthetic bench; exit 1 if one is
                                     missed or a clean case fails
"""
import copy
import json
import os
import sys
from pathlib import Path

TOL = float(os.environ.get("BENCH_TOL", "0.50"))


def compare(base, cur, tol):
    """Return (mismatches, regressions, notes) for `cur` against `base`."""
    mismatches, regressions, notes = [], [], []
    fields, cur_fields = base.get("fields", {}), cur.get("fields", {})
    for name in sorted(fields.keys() | cur_fields.keys()):
        if fields.get(name) != cur_fields.get(name):
            mismatches.append(f"fields[{name}]: committed "
                              f"{fields.get(name)} != fresh "
                              f"{cur_fields.get(name)}")
    same_hw = base.get("hardware_concurrency") == cur.get(
        "hardware_concurrency")
    if not same_hw:
        notes.append(f"hardware_concurrency differs (committed "
                     f"{base.get('hardware_concurrency')} vs fresh "
                     f"{cur.get('hardware_concurrency')}) — timing skipped")

    def check(where, b, c):
        for name, tag in fields.items():
            bv, cv = b.get(name), c.get(name)
            if tag == "det" or bv is None or cv is None:
                if bv != cv:
                    mismatches.append(f"{where}{name}: committed {bv!r} != "
                                      f"fresh {cv!r}")
            elif same_hw and bv > 0:
                rel = cv / bv - 1.0
                if rel < -tol:
                    regressions.append(f"{where}{name} {bv} -> {cv} "
                                       f"({rel:+.0%})")
                elif rel > tol:
                    notes.append(f"{where}{name} improved {rel:+.0%} — "
                                 "consider --update")

    check("", base, cur)
    base_rows, cur_rows = base.get("results", []), cur.get("results", [])
    if len(base_rows) != len(cur_rows):
        mismatches.append(f"results: committed {len(base_rows)} rows != "
                          f"fresh {len(cur_rows)}")
    for i, (b, c) in enumerate(zip(base_rows, cur_rows)):
        label = "/".join(str(v) for k, v in b.items()
                         if fields.get(k) == "det" and isinstance(v, str))
        check(f"results[{i}] {label} ", b, c)
    return mismatches, regressions, notes


# A bench the gate has never seen: any file with a "fields" map is gated.
SYNTHETIC = {
    "bench": "selftest_synthetic",
    "seed": 11,
    "hardware_concurrency": 2,
    "fields": {"bench": "det", "seed": "det", "shape": "det",
               "count": "det", "ops_per_s": "timing"},
    "results": [
        {"shape": "wide", "count": 3, "seconds": 0.5, "ops_per_s": 6.0},
        {"shape": "deep", "count": 7, "seconds": 0.7, "ops_per_s": 10.0},
    ],
}


def faults(doc, tol):
    """Yield (fault, mutated copy, must_fail) for one baseline document."""
    fields, rows = doc["fields"], doc["results"]
    top_det = next(k for k in doc if fields.get(k) == "det" and k != "bench")
    row_det = next(k for k in rows[0] if fields.get(k) == "det")
    timing = next(k for k, t in fields.items() if t == "timing")

    def bump(value):
        return value + "x" if isinstance(value, str) else value + 1

    def change_row(cur):
        cur["results"][0][row_det] = bump(cur["results"][0][row_det])

    def slower(cur, hc_delta):
        holder = cur if timing in cur else cur["results"][0]
        holder[timing] *= (1.0 - tol) * 0.9
        cur["hardware_concurrency"] += hc_delta

    edits = [
        ("unmodified", False, lambda cur: None),
        (f"top-level {top_det} changed", True,
         lambda cur: cur.update({top_det: bump(cur[top_det])})),
        (f"row {row_det} changed", True, change_row),
        ("row dropped", True, lambda cur: cur["results"].pop()),
        ("rows swapped", True,
         lambda cur: cur["results"].insert(0, cur["results"].pop(1))),
        ("fields map changed", True,
         lambda cur: cur["fields"].update({row_det: "timing"})),
        (f"{timing} slower than tol, same hardware", True,
         lambda cur: slower(cur, 0)),
        (f"{timing} slower than tol, other hardware", False,
         lambda cur: slower(cur, 1)),
    ]
    for fault, must_fail, edit in edits:
        cur = copy.deepcopy(doc)
        edit(cur)
        yield fault, cur, must_fail


def selftest():
    root = Path(__file__).resolve().parent.parent
    docs = {p.name: json.loads(p.read_text())
            for p in sorted(root.glob("BENCH_*.json"))}
    docs["synthetic"] = SYNTHETIC
    status, cases = 0, 0
    for name, doc in docs.items():
        for fault, cur, must_fail in faults(doc, TOL):
            mismatches, regressions, _ = compare(doc, cur, TOL)
            cases += 1
            if bool(mismatches or regressions) != must_fail:
                print(f"selftest: {name}: {fault}: expected "
                      f"{'a failure' if must_fail else 'a pass'}, got "
                      f"{mismatches + regressions}", file=sys.stderr)
                status = 1
    if status == 0:
        print(f"selftest OK: {cases} cases over {len(docs)} bench files")
    return status


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cur = (json.loads(Path(p).read_text()) for p in argv)
    mismatches, regressions, notes = compare(base, cur, TOL)
    for note in notes:
        print(f"note: {note}")
    for m in mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)
    for r in regressions:
        print(f"REGRESSION {r}", file=sys.stderr)
    if mismatches or regressions:
        print("verdict: REGRESSION", file=sys.stderr)
        return 1
    print("verdict: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
