// Clang lifetime annotation macros — the borrow-checking sibling of
// thread_annotations.h.
//
// The zero-copy wire path hands out non-owning views into pooled memory
// everywhere: FrameView payloads point into receive segments,
// recv_span() exposes writable segment tails, next_block() leases a
// pooled output buffer until the next call. None of that is visible to
// the type system — a span outliving its segment's lease compiles
// silently and corrupts wires at runtime. STRATO_LIFETIME_BOUND marks
// the parameter (or the implicit object parameter, when placed after the
// cv-qualifiers of a member function) that the returned reference/span
// borrows from, so a Clang build diagnoses "call on a temporary, result
// kept" and "returned borrow of a dead local" at compile time. Under GCC
// the macro expands to nothing and costs nothing.
//
// The annotation is one of three layers (DESIGN.md section 14):
//   compile time  STRATO_LIFETIME_BOUND + -Werror on the dangling
//                 diagnostics (scripts/check_static.sh, Clang leg)
//   lint time     the strato-lint `lifetime` flow rule (pooled spans may
//                 not be stored to members/globals or used across a
//                 release()/commit() point without an allow())
//   run time      BufferPool poison-on-release + generation tags
//                 (STRATO_POOL_POISON_DEFAULT_ON), fatal under the ASan
//                 gate
//
// Usage:
//   ByteSpan span() const STRATO_LIFETIME_BOUND;          // borrows *this
//   ByteSpan as_bytes(std::string_view s STRATO_LIFETIME_BOUND);
//
// Reference: https://clang.llvm.org/docs/AttributeReference.html#lifetimebound
#pragma once

#if defined(__clang__)
#define STRATO_LIFETIME_BOUND [[clang::lifetimebound]]
#else
#define STRATO_LIFETIME_BOUND  // no-op on GCC/MSVC
#endif
