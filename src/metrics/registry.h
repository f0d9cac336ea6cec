// Named counter/gauge registry for stream and transport endpoints.
//
// Production log/page services (Socrates, Aurora) hang per-connection
// observability off exactly this shape: a process-local registry of named
// monotonic counters and last-value gauges, cheap enough to bump on every
// frame. Hot-path updates are relaxed atomics — callers resolve a metric
// once (a stable reference) and add() without any lock; the registry's
// mutex only guards name resolution and snapshots. Snapshots are
// name-sorted so two registries fed the same traffic render byte-identical
// JSON — the property the transport soak and bench gate rely on.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace strato::metrics {

/// Monotonic counter. add() is wait-free and safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written signed value (queue depths, watermarks, levels).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Process-local registry: create-on-first-use by name, stable addresses
/// for the lifetime of the registry (std::map nodes never move).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Resolve (creating if absent) the counter named `name`. The reference
  /// stays valid for the registry's lifetime; cache it off the hot path.
  Counter& counter(std::string_view name);

  /// Resolve (creating if absent) the gauge named `name`.
  Gauge& gauge(std::string_view name);

  /// One registered metric at snapshot time.
  struct Sample {
    std::string name;
    bool is_counter = true;
    std::int64_t value = 0;
  };

  /// Name-sorted snapshot of every registered metric.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Deterministic JSON object: {"name":value,...} in name order.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable common::Mutex mu_{"MetricRegistry::mu_"};
  std::map<std::string, Counter, std::less<>> counters_
      STRATO_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ STRATO_GUARDED_BY(mu_);
};

/// One stream direction's block accounting, shared by every front-end of
/// that direction (kTx: CompressingWriter, AsyncSender; kRx:
/// DecompressingReader, AsyncReceiver). Resolves "tx.frames"/"rx.blocks",
/// "<dir>.raw_bytes", "<dir>.framed_bytes" and one "<dir>.blocks.level<N>"
/// per ladder rung once; record() and the reads are relaxed atomics, so
/// any thread may poll mid-run. A level outside the ladder counts the
/// block and its bytes but has no per-level entry.
class BlockCounters {
 public:
  enum Direction { kTx, kRx };

  BlockCounters(MetricRegistry& registry, Direction dir, std::size_t levels);

  void record(std::uint64_t raw, std::uint64_t framed, std::size_t level) {
    blocks_.add();
    raw_.add(raw);
    framed_.add(framed);
    if (level < levels_.size()) levels_[level]->add();
  }
  [[nodiscard]] std::uint64_t raw_bytes() const { return raw_.value(); }
  [[nodiscard]] std::uint64_t framed_bytes() const { return framed_.value(); }
  /// Blocks per ladder rung (index = level).
  [[nodiscard]] std::vector<std::uint64_t> blocks_per_level() const;

  /// The endpoint's other metrics, under the same prefix: "<dir>.<suffix>".
  Counter& counter_named(std::string_view suffix);
  Gauge& gauge_named(std::string_view suffix);

 private:
  MetricRegistry& registry_;
  const char* prefix_;  // "tx." or "rx."
  Counter& blocks_;
  Counter& raw_;
  Counter& framed_;
  std::vector<Counter*> levels_;  // sized once: reads never race a resize
};

}  // namespace strato::metrics
