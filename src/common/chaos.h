// Deterministic fault-injection schedules.
//
// The verification harness needs the environment to "lie" to the adaptive
// controller the same way every run: a chaos schedule is a sorted list of
// scripted events — writer stalls, dropped bytes, corrupted bytes, link
// blackouts — triggered by a monotone coordinate. Byte-oriented consumers
// (core::ThrottledPipe, core::AsyncSender) walk their stream through a
// ChaosWalker keyed by cumulative writer offset; time-oriented consumers
// (vsim::LinkBank) index blackouts by virtual-time nanoseconds.
// Schedules are either scripted explicitly or generated from a seed, so
// every injected fault is replayable.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace strato::common {

/// What the injected fault does when its trigger coordinate is crossed.
enum class ChaosKind : std::uint8_t {
  kStall,    ///< pause the writer for `stall_ns` wall time
  kDrop,     ///< silently discard `span` bytes starting at `at`
  kCorrupt,  ///< XOR the byte at `at` with `xor_mask`
  kBlackout, ///< multiply link capacity by `factor` for `span` ns from `at`
};

/// One scripted fault. `at` is a byte offset for pipe events and a
/// nanosecond timestamp for link blackouts.
struct ChaosEvent {
  ChaosKind kind = ChaosKind::kStall;
  std::uint64_t at = 0;
  std::uint64_t span = 1;        ///< kDrop: bytes; kBlackout: duration (ns)
  std::uint64_t stall_ns = 0;    ///< kStall: pause length
  std::uint8_t xor_mask = 0xFF;  ///< kCorrupt: flipped bits (0 coerced to 0xFF)
  double factor = 0.0;           ///< kBlackout: capacity multiplier in [0, 1]
};

/// Immutable, sorted fault script. Default-constructed = no faults.
class ChaosSchedule {
 public:
  ChaosSchedule() = default;

  /// Build from an explicit event list (sorted by `at` internally).
  static ChaosSchedule scripted(std::vector<ChaosEvent> events);

  /// Knobs for seed-generated byte-stream schedules.
  struct RandomSpec {
    std::uint64_t range = 1 << 20;  ///< coordinates are drawn from [0, range)
    int stalls = 0;
    int drops = 0;
    int corruptions = 0;
    std::uint64_t mean_stall_ns = 2'000'000;  ///< ~2 ms
    std::uint64_t max_drop_span = 64;
  };

  /// Deterministically scatter faults over [0, spec.range). Same spec +
  /// seed => identical schedule.
  static ChaosSchedule random(const RandomSpec& spec, std::uint64_t seed);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<ChaosEvent>& events() const {
    return events_;
  }

  /// Product of every kBlackout factor whose [at, at+span) window covers
  /// `now_ns`; 1.0 when none is active. Stateless, so callers may query
  /// out of order.
  [[nodiscard]] double capacity_factor(std::uint64_t now_ns) const;

 private:
  std::vector<ChaosEvent> events_;  // sorted by `at`
};

/// The byte-stream cursor over a schedule. Coordinates count bytes the
/// writer *attempted* (pre-drop), so a schedule replays identically
/// however the stream is chunked. kDrop and kCorrupt are applied here;
/// each kStall is handed to the caller, because only the stall semantics
/// differ between consumers (a sleep vs a flush deadline). kBlackout is
/// time-indexed and ignored on a byte stream.
class ChaosWalker {
 public:
  ChaosWalker() = default;
  explicit ChaosWalker(ChaosSchedule schedule)
      : schedule_(std::move(schedule)) {}

  /// Walk the next `data.size()` attempted bytes. `emit` receives every
  /// surviving sub-span in order (a corrupted byte as a one-byte span of
  /// its flipped value, valid during the call); `stall` receives each
  /// crossed kStall's duration in ns (at least 1). With no schedule the
  /// whole span is emitted at once.
  void walk(ByteSpan data, const std::function<void(ByteSpan)>& emit,
            const std::function<void(std::uint64_t stall_ns)>& stall);

 private:
  ChaosSchedule schedule_;
  std::size_t idx_ = 0;       // next unapplied event
  std::uint64_t offset_ = 0;  // cumulative bytes attempted
};

}  // namespace strato::common
