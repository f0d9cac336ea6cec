#!/usr/bin/env bash
# Build with -DSTRATO_SANITIZE=undefined and run the unit + fuzz ctest
# labels under UndefinedBehaviorSanitizer. The CMake flavour compiles with
# -fno-sanitize-recover=undefined, so any UB report (misaligned load,
# signed overflow in a codec kernel, invalid shift in a bit reader, ...)
# is a test failure, not a log line.
#
# The build also keeps the tree warning-free: every target compiles with
# -Werror on top of the project's -Wall -Wextra -Wpedantic.
#
# Complements check_asan.sh (spatial/temporal memory errors, pool
# poisoning) and check_tsan.sh (data races): the three sanitizer gates
# share the same lint-first structure.
#
# Usage: scripts/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

# Static gate first: a lint violation fails the run before any sanitizer
# build time is spent.
scripts/check_static.sh --lint-only

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-Werror \
  -DSTRATO_SANITIZE=undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"

# print_stacktrace turns the one-line runtime report into an actionable
# frame list; halt_on_error mirrors the other sanitizer gates.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}"

status=0
if ! ctest --test-dir "$BUILD_DIR" -L 'unit|fuzz' --output-on-failure \
    -j "$(nproc)"; then
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "UBSan suite clean."
else
  echo "UBSan suite FAILED." >&2
fi
exit "$status"
