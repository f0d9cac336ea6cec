#!/usr/bin/env bash
# Build with -DSTRATO_SANITIZE=thread and run the concurrency-sensitive
# tests (thread pool, buffer pool, parallel pipeline, stream, channels,
# async transport + loopback soak) under ThreadSanitizer.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# Static gate first: a lint violation or thread-safety error fails the run
# before any sanitizer build time is spent.
scripts/check_static.sh --lint-only

TESTS=(
  common_concurrency_test
  common_lockgraph_test
  compress_pipeline_test
  compress_decode_pipeline_test
  core_stream_test
  core_transport_test
  transport_soak_test
  dataflow_channel_test
  verify_oracle_test
  verify_chaos_test
  # The event queue under the packet-level DES (vsim/packet_sim).
  vsim_event_queue_test
  # ctest -L fleet slice: single-threaded by design, but the fleet engine
  # shares codecs/stats with concurrent layers — keep it sanitizer-clean.
  vsim_alloc_test
  vsim_fleet_test
)

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTRATO_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

# second_deadlock_stack aids debugging lock-order reports; halt_on_error
# keeps CI signal crisp.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

status=0
for t in "${TESTS[@]}"; do
  echo "== TSan: $t =="
  # common_lockgraph_test provokes AB/BA inversions on purpose (that is
  # what common::LockGraph must catch); TSan's own deadlock detector
  # flags the same inversions, so silence it for just that binary —
  # data-race detection stays on.
  opts="$TSAN_OPTIONS"
  if [ "$t" = "common_lockgraph_test" ]; then
    opts="$opts detect_deadlocks=0"
  fi
  # The loopback soak honors STRATO_TRANSPORT_*; scale it down under the
  # sanitizer's ~10x slowdown unless the caller pinned a size.
  if [ "$t" = "transport_soak_test" ]; then
    export STRATO_TRANSPORT_CONNS="${STRATO_TRANSPORT_CONNS:-8}"
    export STRATO_TRANSPORT_TOTAL_MB="${STRATO_TRANSPORT_TOTAL_MB:-16}"
  fi
  if ! TSAN_OPTIONS="$opts" "$BUILD_DIR/tests/$t"; then
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "TSan suite clean."
else
  echo "TSan suite FAILED." >&2
fi
exit "$status"
