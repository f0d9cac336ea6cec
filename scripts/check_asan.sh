#!/usr/bin/env bash
# Build with -DSTRATO_SANITIZE=address and run the memory-sensitive tests
# (framing + golden vectors, codec round-trips, mutation minifuzz, the
# differential oracle, fault injection) under AddressSanitizer — the
# "never out-of-bounds on hostile input" half of the verification story.
#
# A second build with -DSTRATO_SIMD=OFF then runs the unit + fuzz ctest
# labels once on the scalar fallback: the golden vectors pin the OFF
# build's wire to the default build's, and the sanitizer covers the
# scalar kernels the vectorized dispatch would otherwise shadow.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

# Static gate first: a lint violation or thread-safety error fails the run
# before any sanitizer build time is spent.
scripts/check_static.sh --lint-only

TESTS=(
  # Pool poison-on-release first: the suite's death test proves a stale
  # pooled span aborts with use-after-poison under this build
  # (STRATO_POOL_POISON_DEFAULT_ON is set for every sanitizer flavour).
  common_pool_poison_test
  compress_framing_test
  compress_golden_test
  # The LZ77 decoder's fixed-size copies against exact-size buffers.
  compress_lz77_test
  compress_pipeline_test
  compress_decode_pipeline_test
  # The recv_span/commit torture: re-chunked reads at 3 workers with
  # 1 KiB segments, so segments seal and recycle on most reads.
  compress_fragment_test
  verify_oracle_test
  verify_minifuzz_test
  verify_chaos_test
  property_test
  fault_injection_test
  core_transport_test
  transport_soak_test
  # The event queue under the packet-level DES (vsim/packet_sim): heap
  # bookkeeping under ASan.
  vsim_event_queue_test
  # ctest -L fleet slice: SoA column indexing under ASan guards against
  # any phase/id bookkeeping bug turning into out-of-bounds column reads.
  vsim_alloc_test
  vsim_fleet_test
)

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTRATO_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

# detect_leaks catches pooled-buffer lifetime bugs; halt_on_error keeps CI
# signal crisp.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"

status=0
for t in "${TESTS[@]}"; do
  echo "== ASan: $t =="
  # The loopback soak honors STRATO_TRANSPORT_*; scale it down under the
  # sanitizer's slowdown unless the caller pinned a size.
  if [ "$t" = "transport_soak_test" ]; then
    export STRATO_TRANSPORT_CONNS="${STRATO_TRANSPORT_CONNS:-8}"
    export STRATO_TRANSPORT_TOTAL_MB="${STRATO_TRANSPORT_TOTAL_MB:-16}"
  fi
  if ! "$BUILD_DIR/tests/$t"; then
    status=1
  fi
done

# Scalar-fallback pass: -DSTRATO_SIMD=OFF compiles the kernel layer out,
# and the unit + fuzz labels (golden vectors included) prove the scalar
# build emits and accepts the same wire as the default build.
OFF_DIR="${BUILD_DIR}-simd-off"
echo "== STRATO_SIMD=OFF: unit + fuzz labels =="
cmake -B "$OFF_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTRATO_SANITIZE=address \
  -DSTRATO_SIMD=OFF
cmake --build "$OFF_DIR" -j "$(nproc)"
if ! ctest --test-dir "$OFF_DIR" -L 'unit|fuzz' --output-on-failure \
    -j "$(nproc)"; then
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "ASan suite clean."
else
  echo "ASan suite FAILED." >&2
fi
exit "$status"
