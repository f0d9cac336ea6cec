#!/usr/bin/env bash
# Benchmark trajectory gate: re-run the scaling benches and compare them
# against the committed BENCH_pipeline.json / BENCH_decode.json /
# BENCH_codec.json / BENCH_transport.json at the repo root.
#
#   scripts/check_bench.sh [build-dir] [--update]
#
# Comparison rules (see scripts/check_bench.sh --help and DESIGN.md §9):
#   * Deterministic fields (corpus_seed, block_size, blocks, ratio,
#     identity_check, the set of result rows) must match EXACTLY — any
#     drift means the wire format or a codec changed and the baseline
#     must be regenerated consciously with --update.
#   * Timing fields (mib_per_s) carry a relative tolerance band
#     (BENCH_TOL, default 0.50): a row more than the band SLOWER than
#     the committed baseline is a REGRESSION (exit 1). Timing is only
#     compared when the committed baseline was recorded on a machine
#     with the same hardware_concurrency — numbers from different
#     hardware are not comparable and are skipped with a note.
#   * BENCH_MIN_GAIN (default 0) raises the bar for the single-core
#     codec rows (bench_codec_micro): on same-hardware runs every fresh
#     mib_per_s must be >= committed x (1 + BENCH_MIN_GAIN), i.e. the
#     kernel trajectory must move UP, not merely avoid regressing. Use
#     it when landing a perf PR against the pre-PR baseline (e.g.
#     BENCH_MIN_GAIN=0.1 scripts/check_bench.sh), then --update to
#     commit the new trajectory.
#   * When hardware_concurrency >= 4, the parallel acceptance floor is
#     asserted on the fresh run: speedup_vs_1 >= 2.0 at workers=4 (the
#     decode-pipeline acceptance target; the encode pipeline shares it
#     as a conservative floor).
#   * --update rewrites the committed JSON from the fresh run.
set -u
cd "$(dirname "$0")/.."

BUILD="build"
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    --help|-h) sed -n '2,31p' "$0"; exit 0 ;;
    *) BUILD="$arg" ;;
  esac
done

TOL="${BENCH_TOL:-0.50}"
MIN_GAIN="${BENCH_MIN_GAIN:-0}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0
for pair in "bench_pipeline_scaling:BENCH_pipeline.json" \
            "bench_decode_scaling:BENCH_decode.json" \
            "bench_fleet_scale:BENCH_fleet.json" \
            "bench_codec_micro:BENCH_codec.json" \
            "bench_transport_loopback:BENCH_transport.json"; do
  bench="${pair%%:*}"
  committed="${pair##*:}"
  bin="$BUILD/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "!!! $bench: not built ($bin missing) — build first" >&2
    status=1
    continue
  fi
  fresh="$TMP/$committed"
  echo "=== $bench ==="
  if ! "$bin" "$fresh" >/dev/null; then
    echo "!!! $bench: run failed" >&2
    status=1
    continue
  fi
  if [ "$UPDATE" -eq 1 ] || [ ! -f "$committed" ]; then
    if [ ! -f "$committed" ] && [ "$UPDATE" -eq 0 ]; then
      echo "no committed $committed — writing initial baseline"
    fi
    cp "$fresh" "$committed"
    echo "baseline updated: $committed"
    continue
  fi
  if ! python3 - "$committed" "$fresh" "$TOL" "$MIN_GAIN" <<'EOF'
import json, sys

committed_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
min_gain = float(sys.argv[4])
with open(committed_path) as f:
    base = json.load(f)
with open(fresh_path) as f:
    cur = json.load(f)

# Per-bench comparison schema, selected by the JSON's "bench" field:
#   top      top-level fields that must match exactly
#   key      columns identifying a result row
#   det      row columns that must match exactly
#   timing   higher-is-better throughput column under the tolerance band
#   speedup_floor  assert best speedup_vs_1 at 4 workers (scaling benches)
#   min_gain applies the BENCH_MIN_GAIN floor: every same-hardware row
#            must show fresh >= committed x (1 + min_gain) — the
#            single-core codec trajectory must move up, not just hold
SCHEMAS = {
    "codec_micro": {
        "top": ["bench", "block_size", "blocks", "corpus_seed",
                "identity_check"],
        "key": ["corpus", "level", "op"],
        "det": ["blocks", "ratio"],
        "timing": "mib_per_s",
        "speedup_floor": False,
        "min_gain": True,
    },
    "transport_loopback": {
        "top": ["bench", "block_size", "corpus_seed", "total_mib",
                "identity_check"],
        "key": ["level", "conns", "workers"],
        "det": ["blocks", "ratio"],
        "timing": "mib_per_s",
        "speedup_floor": False,
    },
    "fleet_scale": {
        "top": ["bench", "seed", "epoch_ms", "flows_target", "flows_total",
                "flows_completed", "epochs", "sim_completed_s", "p50_s",
                "p99_s", "p999_s", "metrics_digest"],
        "key": ["name"],
        "det": ["spawned", "admitted", "rejected", "completed", "p99_s"],
        "timing": "kflows_per_s",
        "speedup_floor": False,
        # BENCH_MIN_GAIN applies to the top-level kflows_per_s figure —
        # the fleet has no per-row timing column.
        "min_gain": True,
    },
}
DEFAULT_SCHEMA = {
    "top": ["bench", "block_size", "corpus_seed", "total_mib",
            "identity_check"],
    "key": ["corpus", "level", "workers"],
    "det": ["blocks", "ratio"],
    "timing": "mib_per_s",
    "speedup_floor": True,
}
schema = SCHEMAS.get(base.get("bench"), DEFAULT_SCHEMA)
DETERMINISTIC_TOP = schema["top"]
KEY_COLS = schema["key"]
DETERMINISTIC_COLS = schema["det"]
TIMING_COL = schema["timing"]

failures = []
for k in DETERMINISTIC_TOP:
    if base.get(k) != cur.get(k):
        failures.append(f"{k}: committed {base.get(k)!r} != fresh {cur.get(k)!r}")

def key(row):
    return tuple(row.get(c) for c in KEY_COLS)

base_rows = {key(r): r for r in base.get("results", [])}
cur_rows = {key(r): r for r in cur.get("results", [])}
if set(base_rows) != set(cur_rows):
    failures.append(f"result rows differ: committed {sorted(base_rows)} "
                    f"!= fresh {sorted(cur_rows)}")

same_hw = base.get("hardware_concurrency") == cur.get("hardware_concurrency")
if not same_hw:
    print(f"note: hardware_concurrency differs (committed "
          f"{base.get('hardware_concurrency')} vs fresh "
          f"{cur.get('hardware_concurrency')}) — timing band skipped")

regressions = []
for k in sorted(set(base_rows) & set(cur_rows)):
    b, c = base_rows[k], cur_rows[k]
    for col in DETERMINISTIC_COLS:
        if b.get(col) != c.get(col):
            failures.append(f"{k} {col}: committed {b.get(col)!r} != "
                            f"fresh {c.get(col)!r}")
    if same_hw and b.get(TIMING_COL, 0) and b[TIMING_COL] > 0 \
            and c.get(TIMING_COL) is not None:
        rel = c[TIMING_COL] / b[TIMING_COL] - 1.0
        if rel < -tol:
            regressions.append(f"{k}: {TIMING_COL} {b[TIMING_COL]:.1f} -> "
                               f"{c[TIMING_COL]:.1f} ({rel:+.0%})")
        elif rel > tol:
            print(f"note: {k} improved {rel:+.0%} — consider --update")
        if schema.get("min_gain") and min_gain > 0 \
                and c[TIMING_COL] < b[TIMING_COL] * (1.0 + min_gain):
            regressions.append(
                f"{k}: {TIMING_COL} {c[TIMING_COL]:.1f} below min_gain "
                f"floor {b[TIMING_COL] * (1.0 + min_gain):.1f} "
                f"(committed {b[TIMING_COL]:.1f} x {1.0 + min_gain:.2f})")

# Fleet rows carry no per-row timing column; band the top-level
# throughput figure instead, and hold it to the BENCH_MIN_GAIN upward
# floor when landing a perf PR against the pre-PR baseline.
if same_hw and TIMING_COL in base and TIMING_COL in cur \
        and base[TIMING_COL] > 0:
    rel = cur[TIMING_COL] / base[TIMING_COL] - 1.0
    if rel < -tol:
        regressions.append(f"top-level {TIMING_COL} {base[TIMING_COL]:.1f} "
                           f"-> {cur[TIMING_COL]:.1f} ({rel:+.0%})")
    if schema.get("min_gain") and min_gain > 0 \
            and cur[TIMING_COL] < base[TIMING_COL] * (1.0 + min_gain):
        regressions.append(
            f"top-level {TIMING_COL} {cur[TIMING_COL]:.1f} below min_gain "
            f"floor {base[TIMING_COL] * (1.0 + min_gain):.1f} "
            f"(committed {base[TIMING_COL]:.1f} x {1.0 + min_gain:.2f})")

# Acceptance floor: only assertable with real parallel hardware, and on
# the bench's best 4-worker configuration — the codec-bound rung; the
# fast rungs can legitimately be bound by the feeding thread.
if schema["speedup_floor"] and cur.get("hardware_concurrency", 0) >= 4:
    at4 = [r.get("speedup_vs_1", 0) for r in cur_rows.values()
           if r.get("workers") == 4]
    if at4 and max(at4) < 2.0:
        regressions.append(f"best speedup_vs_1 at 4 workers "
                           f"{max(at4)} < 2.0 floor")

for f_ in failures:
    print(f"MISMATCH {f_}", file=sys.stderr)
for r in regressions:
    print(f"REGRESSION {r}", file=sys.stderr)
if failures or regressions:
    print("verdict: REGRESSION", file=sys.stderr)
    sys.exit(1)
print("verdict: OK")
EOF
  then
    echo "!!! $bench: trajectory check failed (rerun with --update to" \
         "accept a new baseline)" >&2
    status=1
  fi
done

exit $status
