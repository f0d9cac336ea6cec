#!/usr/bin/env bash
# Reach audit: library functions that no shipped binary links.
#
# Builds every src/ archive, the root project's bench and example binaries
# and bench/suite's strato_bench at -O0 with -ffunction-sections
# -fdata-sections and -Wl,--gc-sections, so each binary keeps exactly the
# functions reachable from its main(). Then diffs the strong text (`T`)
# strato:: symbols of the libstrato_*.a archives against the symbols of
# those binaries. A symbol no binary keeps is reached only by tests (or by
# nothing).
#
# scripts/reach_allowlist.txt names the ones that stay on purpose: one
# entry per line, each followed by a `# reason`. An entry is a qualified
# function name without its parameter list (`strato::vsim::Disk::write`,
# matching every overload) or a namespace prefix ending in `::`
# (`strato::verify::`). ABI tags such as [abi:cxx11] are ignored.
#
# Exits 1 when an unreached symbol is not allowlisted, or when an entry is
# stale (matches no unreached symbol). Header-only code is invisible here.
#
# Usage: scripts/check_reach.sh [build-dir]   (default: build-reach)
set -euo pipefail
export LC_ALL=C

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-reach}"
ALLOWLIST=scripts/reach_allowlist.txt

REACH_FLAGS=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

LIBRARIES=()
for dir in src/*/; do
  LIBRARIES+=("strato_$(basename "$dir")")
done
BENCHES=()
for src in bench/bench_*.cc; do
  BENCHES+=("$(basename "$src" .cc)")
done
EXAMPLES=()
for src in examples/*.cpp; do
  EXAMPLES+=("$(basename "$src" .cpp)")
done

echo "== reach: building ${#BENCHES[@]} benches, ${#EXAMPLES[@]} examples" \
     "and strato_bench at -O0 with --gc-sections =="
cmake -B "$BUILD_DIR/root" -S . "${REACH_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR/root" -j "$(nproc)" \
  --target "${LIBRARIES[@]}" "${BENCHES[@]}" "${EXAMPLES[@]}" >/dev/null
cmake -B "$BUILD_DIR/suite" -S bench/suite "${REACH_FLAGS[@]}" >/dev/null
cmake --build "$BUILD_DIR/suite" -j "$(nproc)" --target strato_bench >/dev/null

BINARIES=()
for b in "${BENCHES[@]}"; do BINARIES+=("$BUILD_DIR/root/bench/$b"); done
for e in "${EXAMPLES[@]}"; do BINARIES+=("$BUILD_DIR/root/examples/$e"); done
BINARIES+=("$BUILD_DIR/suite/strato_bench")

# "<type> <demangled name>" per defined symbol.
symbols() { nm -C --defined-only "$@" | sed -nE 's/^[0-9a-f]+ ([A-Za-z]) (.*)$/\1 \2/p'; }

LIB_SYMS="$BUILD_DIR/library.txt"
BIN_SYMS="$BUILD_DIR/binaries.txt"
symbols "$BUILD_DIR"/root/src/*/libstrato_*.a \
  | sed -nE 's/^T (strato::.*)$/\1/p' | sort -u > "$LIB_SYMS"
for b in "${BINARIES[@]}"; do symbols "$b"; done \
  | sed -E 's/^[A-Za-z] //' | sort -u > "$BIN_SYMS"

echo "== reach: ${#BINARIES[@]} binaries, $(wc -l < "$LIB_SYMS")" \
     "library functions =="
UNREACHED="$BUILD_DIR/unreached.txt"
comm -23 "$LIB_SYMS" "$BIN_SYMS" > "$UNREACHED"
python3 - "$ALLOWLIST" "$UNREACHED" <<'EOF'
import re
import sys


def qualified_name(symbol):
    """`ns::Cls::fn[abi:cxx11](int) const` -> `ns::Cls::fn`."""
    s = re.sub(r"\[abi:[^\]]*\]", "", symbol)
    depth = 0
    for i, c in enumerate(s):
        if s.startswith("operator", i) and s[i - 1] == ":":
            rest = s[i + len("operator"):]
            skip = 2 if rest.startswith("()") else 0
            end = rest.find("(", skip)
            return s[: i + len("operator") + (end if end >= 0 else len(rest))]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return s[:i]
    return s


entries = []
bad = False
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        entry, _, reason = line.partition("#")
        entry = entry.strip()
        if not entry:
            continue
        if not reason.strip():
            print(f"{sys.argv[1]}:{lineno}: entry '{entry}' has no # reason")
            bad = True
        entries.append(entry)


def covers(entry, name):
    return name.startswith(entry) if entry.endswith("::") else name == entry


with open(sys.argv[2]) as f:
    unreached = [line.rstrip("\n") for line in f if line.strip()]
used = set()
reported = []
for symbol in unreached:
    name = qualified_name(symbol)
    hits = [e for e in entries if covers(e, name)]
    used.update(hits)
    if not hits:
        reported.append(symbol)

for symbol in reported:
    print(f"unreached: {symbol}")
for entry in entries:
    if entry not in used:
        print(f"stale allowlist entry: {entry}")
        bad = True
allowed = len(unreached) - len(reported)
print(f"check_reach: {len(unreached)} functions reached only by tests:"
      f" {allowed} allowlisted, {len(reported)} reported")
sys.exit(1 if bad or reported else 0)
EOF
