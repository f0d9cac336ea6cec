#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the ablations,
# extensions and model validation, teeing each bench's output into
# results/. Usage: scripts/run_all_experiments.sh [build-dir] [results-dir]
set -u
SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"
BUILD="${1:-build}"
OUT="${2:-results}"

# Fail fast on the static gate: numbers from a tree that violates the
# project rules (wall-clock in vsim, unguarded shared state) are not
# reproducible numbers.
if ! "$SCRIPT_DIR/check_static.sh" --lint-only; then
  echo "static gate failed — fix lint violations before running experiments" >&2
  exit 1
fi

# Reach audit: library code that no bench or example links is either
# allowlisted with a reason or deleted (scripts/reach_allowlist.txt).
if ! "$SCRIPT_DIR/check_reach.sh"; then
  echo "reach audit failed — delete or allowlist the unreached functions" >&2
  exit 1
fi

mkdir -p "$OUT"

if [ ! -d "$BUILD/bench" ]; then
  echo "build first: cmake -B $BUILD -G Ninja && cmake --build $BUILD" >&2
  exit 1
fi

status=0
for b in "$BUILD"/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "=== $name ==="
  if ! "$b" | tee "$OUT/$name.txt"; then
    echo "!!! $name failed" >&2
    status=1
  fi
  echo
done

# Benchmark trajectory gate: re-run every bench with a committed
# BENCH_*.json baseline and compare by each field's tag (exact match on
# det fields, tolerance band on timing fields).
if ! "$SCRIPT_DIR/check_bench.sh" "$BUILD"; then
  echo "!!! bench trajectory check failed" >&2
  status=1
fi

# UBSan leg: numbers produced by a build with latent undefined behaviour
# are not trustworthy numbers. Opt out with STRATO_SKIP_UBSAN=1 (e.g.
# when iterating on bench output only).
if [ "${STRATO_SKIP_UBSAN:-0}" != "1" ]; then
  if ! "$SCRIPT_DIR/check_ubsan.sh"; then
    echo "!!! UBSan gate failed" >&2
    status=1
  fi
fi

# Single-core kernel trajectory as a standalone JSON artifact (the same
# bench also runs inside the glob above and the check_bench.sh gate; this
# copy is the one plots and PR descriptions reference).
"$BUILD"/bench/bench_codec_micro "$OUT/BENCH_codec.json" >/dev/null

# Timeline CSVs for external plotting.
"$BUILD"/bench/bench_fig4_timeline_high --csv "$OUT/fig4_timeline.csv" >/dev/null
"$BUILD"/bench/bench_fig5_timeline_low  --csv "$OUT/fig5_timeline.csv" >/dev/null
"$BUILD"/bench/bench_fig6_switch        --csv "$OUT/fig6_timeline.csv" >/dev/null
echo "outputs in $OUT/"
exit $status
