#!/usr/bin/env python3
"""strato-lint: project-rule linter for the strato tree.

Mechanical rules that -Wall cannot express, enforced over src/ and wired
into every presubmit script (check_static.sh runs this first):

  wallclock        src/vsim and src/verify are deterministic, virtual-time
                   worlds: std::chrono::system_clock, time(), rand()/srand()
                   and std::random_device are banned there (seeded RNGs and
                   SimTime only), so every simulation and fuzz run replays.
  raw-mutex        all locking goes through common::Mutex / MutexLock /
                   CondVar (common/mutex.h) so Clang -Wthread-safety and the
                   LockGraph deadlock detector see it; raw std::mutex,
                   std::lock_guard, std::unique_lock, std::scoped_lock,
                   std::condition_variable and friends are banned in src/
                   outside the wrapper and the detector it feeds.
  stdout           the library must not write to stdout (bench/example
                   output is parsed by scripts); std::cout / printf / puts
                   are banned everywhere in src/. stderr (fprintf(stderr,
                   ...), std::cerr) is fine.
  nodiscard        status-returning APIs (bool try_*(), std::optional<T>
                   returners) must be [[nodiscard]] — dropping a failed
                   try_push is exactly how metrics silently lie.
  fleet-alloc      the fleet engine's hot loop (src/vsim/flow_table.*,
                   src/vsim/fleet.*, src/vsim/topology.*) is structs-of-
                   arrays by design: flows are indices into column
                   vectors, never heap objects. Literal `new`,
                   std::make_unique and std::make_shared are banned in
                   those files — growth happens only through the columns.
  copy             src/compress/framing.* is the zero-copy receive path:
                   payload bytes must flow as spans over pooled buffers,
                   so memcpy/memmove, std::copy and container
                   insert/assign are banned there. The sanctioned copies
                   (header prefix of an encoded frame, the partial-frame
                   tail on buffer wraparound) carry an explicit
                   `// strato-lint: allow(copy)` so every byte copy on
                   the wire path is a reviewable artifact.
  simd             src/common/simd.h is the single home of vector
                   intrinsics and bit-scan builtins: raw intrinsics
                   includes (<immintrin.h>, <arm_neon.h>, ...), _mm*/
                   vld1q/vst1q intrinsic calls and the __builtin_ctz/clz
                   family are banned everywhere else in src/ — portable
                   code calls simd::ctz32/ctz64 (and the match finder
                   simd::kernels()), so one file carries every per-ISA
                   #if.
  socket           raw transport syscalls have exactly one home:
                   socket(2) creation and the epoll_* family are banned in
                   src/ outside src/core/{tcp,epoll_loop,transport}.* —
                   every other layer talks through TcpConnection/
                   TcpListener and EpollLoop, so fd lifetimes, SIGPIPE
                   discipline and event-loop invariants stay auditable in
                   one place.
  lifetime         flow-aware (brace/token-aware, per-function) borrow
                   check for the pooled zero-copy wire path: a span/view
                   derived from pooled storage (recv_span(), span_of(),
                   .span()/.mutable_span(), writable_tail()/unparsed(),
                   try_parse_frame(), next_block()) must not be (a) stored
                   into a member or global, (b) used after a
                   release()/commit()/retire/drop point in the same
                   function, or (c) captured by reference in a lambda.
                   Every sanctioned escape carries an explicit
                   `// strato-lint: allow(lifetime)` with a reason, so
                   each borrow that outlives a statement is a reviewable
                   artifact — the lint-time layer of the three-layer
                   lifetime discipline (STRATO_LIFETIME_BOUND at compile
                   time, BufferPool poisoning at run time; DESIGN.md
                   section 14).
  encode           frame encoding has exactly one caller: a call to
                   encode_block_into() outside src/compress/framing.*
                   (its definition) and src/compress/pipeline.* (the
                   block pipeline, inline at <= 1 worker) is banned, so
                   no front-end grows a private serial encoder with its
                   own level clamp and frame buffer again.
  counters         block accounting has one home: in src/core, the layer
                   of the stream front-ends (stream.*, transport.*), the
                   per-level name literal (`blocks.level`) and
                   MetricRegistry name resolution (`.counter(` /
                   `.gauge(`) are banned — metrics::BlockCounters resolves
                   every name a front-end publishes, so none grows a
                   private tally again.
  decision         Algorithm 1 decides in one place: a call to
                   controller_step() outside src/core/controller.* (its
                   definition and core::window_step, the decision-window
                   kernel) is banned, so every host — AdaptivePolicy, the
                   fleet — measures cdr and decides through window_step,
                   the one hook for a decision recorder.
  lz-finder        LZ match search has one home: MatchScratch and
                   match_scratch() are banned outside
                   compress/lz_common.h, where detail::HashChainFinder
                   fetches its own chains, so no codec grows a private
                   hash-chain finder over the shared scratch again.
  kernels          the dispatched kernel table has one caller: kernels()
                   and the Kernels type are banned outside common/simd.h
                   (their definition) and compress/lz_common.h (the match
                   finder), so per-ISA code stays limited to what differs
                   per ISA and no decoder grows a second copy mechanism
                   behind a function pointer again.
  reorder          blocks re-sequence in one place: in src/compress,
                   Mutex, MutexLock, CondVar and ThreadPool are banned
                   outside compress/reorder_window.h, where
                   detail::ReorderWindow owns the lock, the condition
                   variable and the worker pool, so neither block
                   pipeline grows a private reorder ring again.
  future           the thread pool runs posted jobs and hands back no
                   handle: <future>, std::future, std::shared_future,
                   std::promise, std::packaged_task and std::async are
                   banned in src/, so no path grows per-job shared state
                   (heap allocations per block) again; a job publishes its
                   own result, as compress::detail::ReorderWindow does
                   through its cells.
  env              environment reads have two homes: std::getenv (and
                   secure_getenv) is banned in src/ outside
                   common/simd.h (the STRATO_SIMD dispatch override) and
                   verify/seed.h (the replayable test seeds), so a new
                   env knob needs an explicit review.
  pragma-once      every header starts with #pragma once.
  using-namespace  `using namespace std` is banned in src/.
  include-path     project includes are "dir/file.h" from the src/ root:
                   no "../" traversal, no <bits/...> internals.

Escape hatch: append `// strato-lint: allow(rule)` (comma-separate several
rules) to the offending line, or put the comment alone on the preceding
line. Every allow is a reviewable artifact — grep for `strato-lint:` to
audit them.

Usage:
  strato_lint.py [--root DIR]    lint DIR/src (default: repo root)
  strato_lint.py --selftest      run against tests/lint_fixtures and
                                 verify every seeded violation is caught
Exit status: 0 clean, 1 violations (or selftest mismatch), 2 usage error.
"""

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------

# Files that ARE the sanctioned home of raw primitives.
RAW_MUTEX_ALLOWED = {
    "common/mutex.h",
    "common/lock_graph.h",
    "common/lock_graph.cc",
    "common/thread_annotations.h",
}

WALLCLOCK_DIRS = ("vsim/", "verify/")

# The zero-copy framing layer: every payload byte copy needs allow(copy).
COPY_BANNED_PREFIX = "compress/framing."

# The fleet hot loop: per-flow heap allocation is banned (SoA columns only).
FLEET_ALLOC_PREFIXES = ("vsim/flow_table.", "vsim/fleet.", "vsim/topology.",
                        "vsim/event_queue.")

# The one sanctioned home of intrinsics and bit-scan builtins.
SIMD_ALLOWED = {"common/simd.h"}

# The sanctioned home of raw transport syscalls (socket(2) + epoll_*):
# the TCP wrappers, the event loop, and the async transport they carry.
SOCKET_ALLOWED_PREFIXES = ("core/tcp.", "core/epoll_loop.",
                           "core/transport.")

# The one sanctioned caller of encode_block_into (plus its definition).
ENCODE_ALLOWED_PREFIXES = ("compress/framing.", "compress/pipeline.")

# The one sanctioned caller of controller_step: window_step, beside its
# definition.
DECISION_ALLOWED_PREFIX = "core/controller."

# The stream front-ends' layer, where metrics::BlockCounters is the one
# place registry names are resolved.
COUNTERS_BANNED_PREFIX = "core/"

# The one home of the LZ match finder and its per-thread scratch.
LZ_FINDER_ALLOWED = "compress/lz_common.h"

# The kernel table's definition and its one caller, the match finder.
KERNELS_ALLOWED = {"common/simd.h", "compress/lz_common.h"}

# src/compress's one owner of locks, condition variables and worker
# threads: the reorder window both block pipelines share.
REORDER_BANNED_PREFIX = "compress/"
REORDER_ALLOWED = "compress/reorder_window.h"

# The sanctioned readers of the environment.
ENV_ALLOWED = {"common/simd.h", "verify/seed.h"}

RULES = {
    "wallclock": [
        (re.compile(r"system_clock"), "std::chrono::system_clock"),
        (re.compile(r"(?<![A-Za-z0-9_])s?rand\s*\("), "rand()/srand()"),
        (re.compile(r"(?<![A-Za-z0-9_])time\s*\("), "time()"),
        (re.compile(r"random_device"), "std::random_device"),
    ],
    "raw-mutex": [
        (re.compile(r"std::(timed_|recursive_|shared_)?mutex\b"), "raw std mutex type"),
        (re.compile(r"std::(lock_guard|unique_lock|scoped_lock)\b"), "raw std lock"),
        (re.compile(r"std::condition_variable(_any)?\b"), "raw std condition variable"),
        (re.compile(r"std::call_once\b|pthread_mutex"), "raw once/pthread locking"),
    ],
    "stdout": [
        (re.compile(r"std::cout\b"), "std::cout"),
        (re.compile(r"(?<![A-Za-z0-9_:])(?:std::)?printf\s*\("), "printf to stdout"),
        (re.compile(r"(?<![A-Za-z0-9_])puts\s*\("), "puts()"),
        (re.compile(r"fprintf\s*\(\s*stdout"), "fprintf(stdout, ...)"),
    ],
    "copy": [
        (re.compile(r"(?<![A-Za-z0-9_])(?:std::)?mem(?:cpy|move)\s*\("),
         "memcpy/memmove on the zero-copy framing path"),
        (re.compile(r"std::copy(_n|_backward)?\b"),
         "std::copy on the zero-copy framing path"),
        (re.compile(r"\.\s*(insert|assign)\s*\("),
         "container insert/assign (byte copy) on the framing path"),
    ],
    "fleet-alloc": [
        (re.compile(r"(?<![A-Za-z0-9_])new\b"),
         "heap allocation (new) in the fleet hot loop"),
        (re.compile(r"std::make_(unique|shared)\b"),
         "heap allocation (make_unique/make_shared) in the fleet hot loop"),
    ],
    "simd": [
        (re.compile(r"#\s*include\s+<(?:[a-z0-9]*mmintrin|immintrin|"
                    r"x86intrin|avx[a-z0-9]*intrin|arm_neon|arm_sve)\.h>"),
         "raw intrinsics include (the kernel layer lives in common/simd.h)"),
        (re.compile(r"(?<![A-Za-z0-9_])_mm(?:256|512)?_\w+\s*\("),
         "raw x86 intrinsic call (use the common/simd.h kernel table)"),
        (re.compile(r"(?<![A-Za-z0-9_])v(?:ld|st)1q?_\w+\s*\("),
         "raw NEON intrinsic call (use the common/simd.h kernel table)"),
        (re.compile(r"__builtin_c[tl]z(?:l|ll)?\b"),
         "__builtin_ctz/clz family (use simd::ctz32/ctz64)"),
    ],
    "socket": [
        (re.compile(r"(?<![A-Za-z0-9_])socket\s*\("),
         "raw socket(2) (use core::TcpConnection / core::TcpListener)"),
        (re.compile(r"(?<![A-Za-z0-9_])epoll_(?:create1?|ctl|p?wait)\s*\("),
         "raw epoll_* syscall (use core::EpollLoop)"),
    ],
    "encode": [
        (re.compile(r"(?<![A-Za-z0-9_])encode_block_into\s*\("),
         "encode_block_into outside compress/pipeline (submit the block to "
         "a compress::ParallelBlockPipeline)"),
    ],
    "decision": [
        (re.compile(r"(?<![A-Za-z0-9_])controller_step\s*\("),
         "controller_step outside core/controller (decide through "
         "core::window_step)"),
    ],
    "counters": [
        (re.compile(r"blocks\.level"),
         "per-level counter name outside metrics::BlockCounters"),
        (re.compile(r"(?:\.|->)\s*(?:counter|gauge)\s*\("),
         "MetricRegistry name resolution in a stream front-end (count "
         "through metrics::BlockCounters)"),
    ],
    "lz-finder": [
        (re.compile(r"(?<![A-Za-z0-9_])MatchScratch\b"),
         "MatchScratch outside compress/lz_common.h (search through "
         "detail::HashChainFinder)"),
        (re.compile(r"(?<![A-Za-z0-9_])match_scratch\s*\("),
         "match_scratch() outside compress/lz_common.h (search through "
         "detail::HashChainFinder)"),
    ],
    "kernels": [
        (re.compile(r"(?<![A-Za-z0-9_])kernels\s*\("),
         "kernels() outside common/simd.h and compress/lz_common.h (search "
         "through detail::HashChainFinder; replay through "
         "detail::copy_match)"),
        (re.compile(r"(?<![A-Za-z0-9_])Kernels\b"),
         "simd::Kernels outside common/simd.h and compress/lz_common.h"),
    ],
    "reorder": [
        (re.compile(
            r"(?<![A-Za-z0-9_])(?:Mutex(?:Lock)?|CondVar|ThreadPool)\b"),
         "lock, condition variable or thread pool in src/compress outside "
         "compress/reorder_window.h (re-sequence through "
         "detail::ReorderWindow)"),
    ],
    "future": [
        (re.compile(r"#\s*include\s+<future>"), "<future> include"),
        (re.compile(r"std::(?:shared_)?future\b"),
         "std::future/std::shared_future (post a job that publishes its "
         "own result)"),
        (re.compile(r"std::(?:promise|packaged_task|async)\b"),
         "std::promise/std::packaged_task/std::async (post a job that "
         "publishes its own result)"),
    ],
    "env": [
        (re.compile(r"(?<![A-Za-z0-9_])(?:std::)?(?:secure_)?getenv\s*\("),
         "environment read outside common/simd.h and verify/seed.h (a new "
         "env knob needs review)"),
    ],
    "using-namespace": [
        (re.compile(r"\busing\s+namespace\s+std\b"), "using namespace std"),
    ],
    "include-path": [
        (re.compile(r'#\s*include\s+"\.\./'), 'relative "../" include'),
        (re.compile(r"#\s*include\s+<bits/"), "<bits/...> internal header"),
    ],
}

# nodiscard is declaration-shaped rather than token-shaped.
NODISCARD_DECL = re.compile(
    r"^\s*(?:virtual\s+)?(?:bool\s+try_\w+|std::optional<[^;=]*>\s+\w+)\s*\("
)

# --------------------------------------------------------------------------
# lifetime rule: a flow pass over each function body (the other rules are
# line-shaped; this one needs statement order and scope).
# --------------------------------------------------------------------------

# Expressions that mint a borrow of pooled storage. Note BufferPool::
# acquire() is absent on purpose: it transfers ownership, the borrows
# start at the span accessors layered on top.
LIFETIME_SOURCE_RE = re.compile(
    r"\b(?:recv_span|try_parse_frame|writable_tail|unparsed|span_of)\s*\("
    r"|\.\s*(?:span|mutable_span)\s*\(\s*\)"
    r"|\bnext_block\s*\(\s*\)")

# Calls after which previously minted borrows are dead: the pool may have
# reclaimed (and, in poison mode, stamped) the storage behind them.
LIFETIME_RELEASE_RE = re.compile(
    r"\b(?:release|commit|retire_segments|drop_lease)\s*\(")

# Accessors on a pooled view that produce a VALUE (safe to store), not a
# borrow: copying a FrameHeader or a size out of a view is fine.
LIFETIME_VALUEISH_RE = re.compile(
    r"^\s*(?:\.|->)\s*(?:header|frame_size|size|empty|capacity|length)\b")

# Assignment to a local (possibly `var.field = ...`): group 1 the base
# variable, group 2 the right-hand side.
LIFETIME_ASSIGN_RE = re.compile(
    r"^\s*(?:[\w:<>,\s&*]+?\s)?([A-Za-z_]\w*)"
    r"(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)?\s*"
    r"(?<![=!<>+\-*/|&^])=(?![=])\s*(.+)$")

# Store into a member (project convention: trailing underscore, or an
# explicit this->) or a global (g_ prefix): plain assignment or a
# container insertion that keeps the value alive past the statement.
LIFETIME_MEMBER_STORE_RE = re.compile(
    r"^\s*(?:this\s*->\s*)?(?:[A-Za-z_]\w*_|g_\w+)\b"
    r"[\w.\[\]\s>-]*(?<![=!<>+\-*/|&^])=(?![=])\s*(.+)$")
LIFETIME_MEMBER_INSERT_RE = re.compile(
    r"\b(?:this\s*->\s*)?(?:[A-Za-z_]\w*_|g_\w+)\s*\.\s*"
    r"(?:push_back|push_front|emplace_back|emplace_front|insert|assign)"
    r"\s*\(([^;]*)")

# Lambda capture list (only when it is actually a lambda: followed by a
# parameter list or a body brace).
LIFETIME_LAMBDA_RE = re.compile(r"\[([^\]\[]*)\]\s*(?:\([^)]*\))?\s*\{")

# Function-header blacklist: a '(' after one of these is control flow or
# an operator, not a function definition.
NON_FUNCTION_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "alignas", "decltype", "static_assert", "new", "delete",
    "co_return", "co_await", "throw", "assert",
}


def strip_strings(line):
    """Blank out the contents of string and char literals so braces and
    identifiers inside them do not confuse the token scan. Quotes are
    kept; escapes are honoured."""
    out = []
    i = 0
    quote = None
    while i < len(line):
        ch = line[i]
        if quote is not None:
            if ch == "\\" and i + 1 < len(line):
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                quote = None
                out.append(ch)
            else:
                out.append(" ")
        else:
            if ch in "\"'":
                quote = ch
            out.append(ch)
        i += 1
    return "".join(out)


def looks_like_function_header(header):
    """Heuristic: does the accumulated statement text before a `{` look
    like a function definition (vs control flow, a class, an initializer)?"""
    h = header.strip()
    if "(" not in h or not h or h.endswith(("=", ",")):
        return False
    m = re.search(r"([~A-Za-z_][\w:~]*)\s*\(", h)
    if m is None:
        return False
    name = m.group(1).split("::")[-1].lstrip("~")
    if name in NON_FUNCTION_KEYWORDS:
        return False
    # `Type obj{...}` has no '('; `enum class E : int {` has none either —
    # both already excluded. Reject aggregate types defined with bodies.
    if re.match(r"^(?:typedef\s+)?(?:struct|class|union|enum|namespace)\b",
                h):
        return False
    return True


def function_bodies(code_lines):
    """Token scan over comment/string-stripped lines. Returns a list of
    (first_line_idx, [body line indices]) — one entry per function-shaped
    brace block; nested blocks (loops, lambdas, local classes) stay inside
    their enclosing function's entry."""
    bodies = []
    depth = 0
    fn_depth = None  # brace depth at which the current function body opened
    current = None
    header = ""
    for idx, line in enumerate(code_lines):
        for ch in line:
            if ch == "{":
                if fn_depth is None and looks_like_function_header(header):
                    fn_depth = depth
                    current = (idx, [])
                depth += 1
                header = ""
            elif ch == "}":
                depth = max(0, depth - 1)
                if fn_depth is not None and depth == fn_depth:
                    bodies.append(current)
                    current = None
                    fn_depth = None
                header = ""
            elif ch == ";":
                header = ""
            else:
                header += ch
        header += " "
        if current is not None:
            current[1].append(idx)
    return bodies


def lifetime_borrowish_use(rhs, var):
    """True when `var` appears in `rhs` as a borrow (the var itself, its
    span fields, .data()/.subspan(...)), not merely as a copied-out value
    (.header, .size(), ...)."""
    for m in re.finditer(r"\b%s\b" % re.escape(var), rhs):
        rest = rhs[m.end():]
        if not LIFETIME_VALUEISH_RE.match(rest):
            return True
    return False


# Wrappers that forward a borrow instead of consuming it by value: span
# constructors, std::move/forward, std::optional of a view.
LIFETIME_SPAN_WRAPPER_RE = re.compile(
    r"(?:(?:common|std)::)?(?:Mutable)?ByteSpan$|(?:std::)?(?:move|forward)$"
    r"|(?:std::)?(?:optional|make_optional)$|subspan$|first$|last$")


def lifetime_rhs_mints_borrow(rhs, pooled_vars):
    """Does evaluating `rhs` produce a borrow of pooled storage? A source
    call nested inside some other function call is consumed by that call
    (`parse_header(seg.unparsed())` copies a header out by value) unless
    the outer call is a span wrapper that forwards the borrow."""
    pos = 0
    while True:
        m = LIFETIME_SOURCE_RE.search(rhs, pos)
        if m is None:
            break
        pos = m.end()
        # Position of the outermost unmatched '(' before the source call.
        stack = []
        for i, ch in enumerate(strip_strings(rhs[:m.start()])):
            if ch == "(":
                stack.append(i)
            elif ch == ")" and stack:
                stack.pop()
        if not stack:
            return True  # top-level source expression: a borrow
        outer = rhs[:stack[0]].rstrip()
        mm = re.search(r"([A-Za-z_][\w:]*)\s*$", outer)
        if mm is not None and LIFETIME_SPAN_WRAPPER_RE.search(mm.group(1)):
            return True
    return any(lifetime_borrowish_use(rhs, v) for v in pooled_vars)


def lint_lifetime(path_rel, raw_lines, code_lines, report):
    """The flow pass: track locals derived from pooled storage through
    each function body, flag member/global stores, uses across a
    release()/commit() point, and by-reference lambda captures."""
    stripped = [strip_strings(line) for line in code_lines]
    for _, body in function_bodies(stripped):
        pooled = {}          # var -> line idx where the borrow was minted
        release_at = None    # line idx of the first release point seen
        for idx in body:
            code = stripped[idx]
            if not code.strip():
                continue

            assign = LIFETIME_ASSIGN_RE.match(code)
            # Re-deriving a var from a fresh source revives it (loop
            # bodies: recv_span -> commit -> recv_span again).
            rederived = None
            if assign:
                var, rhs = assign.group(1), assign.group(2)
                rhs_pooled = lifetime_rhs_mints_borrow(rhs, pooled)
                if rhs_pooled:
                    if LIFETIME_MEMBER_STORE_RE.match(code):
                        report(idx, "pooled span stored into a member/"
                                    "global outlives its lease")
                    else:
                        pooled[var] = idx
                        rederived = var
                elif var in pooled and "." not in code.split("=")[0] \
                        and "->" not in code.split("=")[0]:
                    # Whole-object reassignment from a non-pooled value
                    # ends the borrow.
                    del pooled[var]

            # Container insertion into a member keeps the borrow alive
            # past the statement.
            mins = LIFETIME_MEMBER_INSERT_RE.search(code)
            if mins and lifetime_rhs_mints_borrow(mins.group(1), pooled):
                report(idx, "pooled span inserted into a member container "
                            "outlives its lease")

            # Use-after-release: any borrow minted before the release
            # point is dead past it.
            if release_at is not None:
                for var, minted in pooled.items():
                    if var == rederived or minted > release_at:
                        continue
                    if re.search(r"\b%s\b" % re.escape(var), code):
                        report(idx, f"pooled span '{var}' used after a "
                                    "release()/commit() point")

            # By-reference lambda capture: deferred execution may outlive
            # the lease.
            for lam in LIFETIME_LAMBDA_RE.finditer(code):
                caps = lam.group(1)
                if "&" not in caps:
                    continue
                explicit = re.findall(r"&\s*([A-Za-z_]\w*)", caps)
                hit = [v for v in explicit if v in pooled]
                default_ref = re.match(r"^\s*&\s*(?:,|$)", caps) is not None
                body_after = code[lam.end():]
                if hit or (default_ref and any(
                        re.search(r"\b%s\b" % re.escape(v), body_after)
                        for v in pooled)):
                    report(idx, "pooled span captured by reference in a "
                                "lambda (deferred use may outlive the "
                                "lease)")

            if LIFETIME_RELEASE_RE.search(code) and release_at is None:
                release_at = idx

ALLOW_RE = re.compile(r"//\s*strato-lint:\s*allow\(([^)]*)\)")

SOURCE_SUFFIXES = {".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx"}


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def strip_comments(lines):
    """Blank out //- and /* */-comment text (allow() markers are extracted
    before this runs). Keeps line count and column positions stable enough
    for reporting. String literals are not parsed — the rules target
    identifiers that do not plausibly appear in strings."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            result.append(line[i])
            i += 1
        out.append("".join(result))
    return out


def allowed_rules(raw_lines, idx):
    """Rules suppressed for line idx (same line or the preceding line)."""
    rules = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def lint_file(path: Path, rel: str):
    findings = []
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as ex:
        return [Finding(rel, 0, "io", f"unreadable: {ex}")]
    raw_lines = raw.splitlines()
    code_lines = strip_comments(raw_lines)

    is_header = path.suffix in {".h", ".hh", ".hpp"}
    in_wallclock_dir = any(rel.startswith(d) for d in WALLCLOCK_DIRS)

    # pragma-once: file-level; allow() anywhere in the first 5 lines.
    # Checked on comment-stripped lines so prose about the directive
    # doesn't satisfy it.
    has_pragma_once = any(
        line.strip().startswith("#pragma once") for line in code_lines)
    if is_header and not has_pragma_once:
        head_allows = set()
        for probe in range(min(5, len(raw_lines))):
            m = ALLOW_RE.search(raw_lines[probe])
            if m:
                head_allows.update(r.strip() for r in m.group(1).split(","))
        if "pragma-once" not in head_allows:
            findings.append(
                Finding(rel, 1, "pragma-once", "header lacks #pragma once"))

    for idx, code in enumerate(code_lines):
        if not code.strip():
            continue
        line_no = idx + 1
        allows = None  # computed lazily, most lines are clean

        def check(rule, patterns):
            nonlocal allows
            for pattern, what in patterns:
                if pattern.search(code):
                    if allows is None:
                        allows = allowed_rules(raw_lines, idx)
                    if rule not in allows:
                        findings.append(Finding(rel, line_no, rule, what))

        if in_wallclock_dir:
            check("wallclock", RULES["wallclock"])
        if rel not in RAW_MUTEX_ALLOWED:
            check("raw-mutex", RULES["raw-mutex"])
        check("stdout", RULES["stdout"])
        if rel.startswith(COPY_BANNED_PREFIX):
            check("copy", RULES["copy"])
        if rel.startswith(FLEET_ALLOC_PREFIXES):
            check("fleet-alloc", RULES["fleet-alloc"])
        if rel not in SIMD_ALLOWED:
            check("simd", RULES["simd"])
        if not rel.startswith(SOCKET_ALLOWED_PREFIXES):
            check("socket", RULES["socket"])
        if not rel.startswith(ENCODE_ALLOWED_PREFIXES):
            check("encode", RULES["encode"])
        if not rel.startswith(DECISION_ALLOWED_PREFIX):
            check("decision", RULES["decision"])
        if rel.startswith(COUNTERS_BANNED_PREFIX):
            check("counters", RULES["counters"])
        if rel != LZ_FINDER_ALLOWED:
            check("lz-finder", RULES["lz-finder"])
        if rel not in KERNELS_ALLOWED:
            check("kernels", RULES["kernels"])
        if rel.startswith(REORDER_BANNED_PREFIX) and rel != REORDER_ALLOWED:
            check("reorder", RULES["reorder"])
        check("future", RULES["future"])
        if rel not in ENV_ALLOWED:
            check("env", RULES["env"])
        check("using-namespace", RULES["using-namespace"])
        check("include-path", RULES["include-path"])

        if is_header and NODISCARD_DECL.search(code) \
                and "[[nodiscard]]" not in code:
            if allows is None:
                allows = allowed_rules(raw_lines, idx)
            if "nodiscard" not in allows:
                findings.append(Finding(
                    rel, line_no, "nodiscard",
                    "status-returning API lacks [[nodiscard]]"))

    # The lifetime rule runs as a separate per-function flow pass: it
    # needs statement order and function scope, not just line shape.
    def report_lifetime(idx, message):
        if "lifetime" not in allowed_rules(raw_lines, idx):
            findings.append(Finding(rel, idx + 1, "lifetime", message))

    lint_lifetime(rel, raw_lines, code_lines, report_lifetime)
    return findings


def lint_tree(root: Path):
    src = root / "src"
    if not src.is_dir():
        print(f"strato-lint: no src/ under {root}", file=sys.stderr)
        return None
    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            findings.extend(lint_file(path, path.relative_to(src).as_posix()))
    return findings


# --------------------------------------------------------------------------
# Selftest: the fixture tree seeds one violation per (file, rule) below and
# one fully allow()-annotated file that must stay clean.
# --------------------------------------------------------------------------

EXPECTED_FIXTURE_FINDINGS = {
    ("vsim/bad_clock.cc", "wallclock"): 3,
    ("core/bad_mutex.cc", "raw-mutex"): 3,
    ("core/bad_print.cc", "stdout"): 2,
    ("core/bad_header.h", "pragma-once"): 1,
    ("core/bad_header.h", "nodiscard"): 2,
    ("core/bad_header.h", "using-namespace"): 1,
    ("core/bad_header.h", "include-path"): 1,
    ("compress/framing.cc", "copy"): 4,
    ("core/bad_socket.cc", "socket"): 4,
    ("core/bad_encode.cc", "encode"): 2,
    ("vsim/bad_decision.cc", "decision"): 2,
    ("core/bad_counters.cc", "counters"): 4,
    ("core/bad_env.cc", "env"): 3,
    ("compress/bad_lz_finder.cc", "lz-finder"): 3,
    ("compress/bad_kernels.cc", "kernels"): 3,
    ("compress/bad_reorder.cc", "reorder"): 4,
    ("core/bad_future.cc", "future"): 6,
    ("compress/bad_simd.cc", "simd"): 5,
    ("vsim/fleet.cc", "fleet-alloc"): 3,
    ("compress/bad_lifetime.cc", "lifetime"): 6,
}


def selftest(fixture_root: Path) -> int:
    findings = lint_tree(fixture_root)
    if findings is None:
        return 2
    got = {}
    for f in findings:
        got[(f.path, f.rule)] = got.get((f.path, f.rule), 0) + 1

    status = 0
    for key, want in EXPECTED_FIXTURE_FINDINGS.items():
        have = got.pop(key, 0)
        if have != want:
            print(f"selftest: {key[0]} [{key[1]}]: expected {want} "
                  f"finding(s), got {have}", file=sys.stderr)
            status = 1
    for (path, rule), count in sorted(got.items()):
        print(f"selftest: unexpected {count} finding(s) {path} [{rule}]",
              file=sys.stderr)
        status = 1
    # The allow()-annotated twin must be clean — it exercises the escape
    # hatch for every rule.
    if status == 0:
        print(f"selftest OK: {len(findings)} seeded violations caught, "
              "allow() escapes honoured")
    return status


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root containing src/ (default: repo)")
    parser.add_argument("--selftest", action="store_true",
                        help="lint tests/lint_fixtures and verify the "
                             "seeded violations are all caught")
    args = parser.parse_args(argv)

    if args.selftest:
        fixtures = (Path(__file__).resolve().parent.parent
                    / "tests" / "lint_fixtures")
        return selftest(fixtures)

    findings = lint_tree(args.root.resolve())
    if findings is None:
        return 2
    for f in findings:
        print(f)
    if findings:
        print(f"strato-lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("strato-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
