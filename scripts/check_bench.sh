#!/usr/bin/env bash
# Benchmark trajectory gate: re-run every bench that has a committed
# BENCH_<name>.json at the repo root and compare the fresh JSON with it.
#
#   scripts/check_bench.sh [build-dir] [--update]
#
#   * Each committed file names its bench ("bench": "<b>" runs
#     <build-dir>/bench/bench_<b>) and tags its own fields in a "fields"
#     map (bench/bench_json.h). scripts/bench_compare.py compares them by
#     tag: det fields exactly; timing fields within a relative band
#     (BENCH_TOL, default 0.50), and only against a baseline recorded at
#     the same hardware_concurrency. It compares the top level, then the
#     rows by position. A changed "fields" map is a mismatch.
#   * A bench that fails its own acceptance check (identity, speedup
#     floor, wall budget) exits non-zero: "run failed".
#   * Per-host baselines: when the fresh run's hardware_concurrency N
#     differs from BENCH_<name>.json's, the run is compared against
#     BENCH_<name>.hc<N>.json instead, if that file is committed.
#   * --update rewrites the committed JSON for the fresh run's
#     hardware_concurrency: BENCH_<name>.json when it matches that
#     file's, BENCH_<name>.hc<N>.json otherwise.
#   * A new bench joins the gate when its first baseline is committed:
#     run `bench_<b> BENCH_<name>.json` once.
set -u
cd "$(dirname "$0")/.."

BUILD="build"
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --update) UPDATE=1 ;;
    --help|-h) sed -n '2,23p' "$0"; exit 0 ;;
    *) BUILD="$arg" ;;
  esac
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# A top-level field of a bench JSON.
field() {
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1])).get(sys.argv[2]))' "$1" "$2"
}

status=0
for committed in BENCH_*.json; do
  case "$committed" in *.hc[0-9]*.json) continue ;; esac
  bench="bench_$(field "$committed" bench)"
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
  hc="$(field "$fresh" hardware_concurrency)"
  host_file="${committed%.json}.hc$hc.json"
  if [ "$hc" != "$(field "$committed" hardware_concurrency)" ] &&
     { [ "$UPDATE" -eq 1 ] || [ -f "$host_file" ]; }; then
    committed="$host_file"
  fi
  if [ "$UPDATE" -eq 1 ]; then
    cp "$fresh" "$committed"
    echo "baseline updated: $committed"
    continue
  fi
  echo "baseline: $committed"
  if ! python3 scripts/bench_compare.py "$committed" "$fresh"; then
    echo "!!! $bench: trajectory check failed (rerun with --update to" \
         "accept a new baseline)" >&2
    status=1
  fi
done

exit $status
