// Reusable block-buffer pool.
//
// Every 128 KB channel block used to cost at least two short-lived
// std::vector allocations on the hot path: the frame the codec writes into
// and, with the parallel pipeline, the raw copy handed to a worker. At
// link-saturating rates those allocations (and the page faults behind
// freshly mapped pages) show up prominently in profiles. BufferPool keeps a
// bounded free list of Bytes buffers so steady-state compression recycles
// the same few blocks of memory instead of round-tripping the allocator.
//
// Lifetime discipline (DESIGN.md section 14): every span handed out over a
// pooled buffer is a borrow that dies with the buffer's lease. The borrow
// is machine-checked at three layers — STRATO_LIFETIME_BOUND annotations
// (compile time, Clang), the strato-lint `lifetime` flow rule (lint time),
// and this pool's debug mode (run time): when poisoning is enabled
// (default-on in Debug and sanitizer builds, set_poison() overrides),
// release() stamps the buffer with kPoisonByte, bumps its generation
// tag, optionally parks it in a quarantine FIFO to delay reuse, and —
// under AddressSanitizer — poisons the memory region so any stale span
// dereference aborts deterministically instead of shipping a corrupt
// frame. acquire() unpoisons before handing the buffer back out.
//
// Thread-safe: the parallel pipeline's workers acquire/release frames
// concurrently with the submitting thread recycling raw-block copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/lifetime_annotations.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace strato::common {

/// Bounded free list of reusable byte buffers.
class BufferPool {
 public:
  /// Pattern stamped over released bytes in poison mode: a stale span read
  /// observes 0xA5 instead of the frame that used to live there.
  static constexpr std::uint8_t kPoisonByte = 0xA5;

  /// @param max_buffers free-list bound; released buffers beyond it are
  ///                    dropped (freed) instead of retained.
  explicit BufferPool(std::size_t max_buffers = 32);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer with capacity >= min_capacity and size 0. Reuses a pooled
  /// buffer when one is available, preferring one already large enough.
  [[nodiscard]] Bytes acquire(std::size_t min_capacity);

  /// Return a buffer to the pool. Contents are irrelevant; the buffer is
  /// dropped when the free list is full. In poison mode the contents are
  /// stamped with kPoisonByte and the buffer's generation tag is bumped
  /// before it becomes reusable — any span still pointing into it is dead.
  void release(Bytes buf);

  /// Poison-on-release debug mode. Defaults to the build-wide setting
  /// (STRATO_POOL_POISON_DEFAULT_ON in Debug/sanitizer builds); this call
  /// overrides it for this pool.
  void set_poison(bool enabled);
  [[nodiscard]] bool poison_enabled() const;

  /// Quarantine FIFO depth: released buffers pass through a FIFO of this
  /// many buffers before re-entering the free list, so a stale span keeps
  /// pointing at poisoned (ASan: inaccessible) memory for longer instead
  /// of silently aliasing the next acquire. 0 disables (default).
  void set_quarantine(std::size_t depth);

  /// Generation tag of the pooled allocation starting at `data`: bumped on
  /// every release of that buffer, so a lease-holder can assert its span
  /// is still current. 0 = unknown allocation (never pooled here, or
  /// dropped). Tags are tracked only while poison mode is enabled.
  [[nodiscard]] std::uint64_t generation(const void* data) const;

  /// Counters for tests and benches.
  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t reuses = 0;    ///< acquires served from the free list
    std::uint64_t drops = 0;     ///< releases dropped because the list was full
    std::size_t free_buffers = 0;
    std::uint64_t poisons = 0;      ///< releases that stamped kPoisonByte
    std::uint64_t unpoisons = 0;    ///< acquires that unpoisoned a buffer
    std::size_t quarantined = 0;    ///< buffers currently parked in the FIFO
    std::uint64_t generations = 0;  ///< sum of all generation bumps
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Stamp + tag + ASan-poison under mu_; returns false when the buffer
  /// has no backing allocation (capacity 0 — nothing to poison).
  void poison_locked(Bytes& buf) STRATO_REQUIRES(mu_);
  /// Undo the ASan poisoning and drop the quarantine hold before a buffer
  /// is handed out or freed.
  void unpoison_locked(Bytes& buf) STRATO_REQUIRES(mu_);
  /// Move quarantined buffers whose hold expired onto the free list (or
  /// drop them when the list is full).
  void drain_quarantine_locked() STRATO_REQUIRES(mu_);

  mutable Mutex mu_{"BufferPool::mu_"};
  std::vector<Bytes> free_ STRATO_GUARDED_BY(mu_);
  std::size_t max_buffers_;
  bool poison_ STRATO_GUARDED_BY(mu_);
  std::size_t quarantine_depth_ STRATO_GUARDED_BY(mu_) = 0;
  std::deque<Bytes> quarantine_ STRATO_GUARDED_BY(mu_);
  /// data() pointer -> generation tag. Populated only in poison mode;
  /// entries die when their buffer is dropped from the pool.
  std::unordered_map<const void*, std::uint64_t> gen_ STRATO_GUARDED_BY(mu_);
  std::uint64_t acquires_ STRATO_GUARDED_BY(mu_) = 0;
  std::uint64_t reuses_ STRATO_GUARDED_BY(mu_) = 0;
  std::uint64_t drops_ STRATO_GUARDED_BY(mu_) = 0;
  std::uint64_t poisons_ STRATO_GUARDED_BY(mu_) = 0;
  std::uint64_t unpoisons_ STRATO_GUARDED_BY(mu_) = 0;
  std::uint64_t generations_ STRATO_GUARDED_BY(mu_) = 0;
};

/// RAII lease: acquire on construction, release (poison) on scope exit.
/// Spans taken from the lease are borrows of the lease object — annotated
/// so a Clang build rejects keeping one past the lease's death.
class PoolLease {
 public:
  PoolLease(BufferPool& pool, std::size_t min_capacity)
      : pool_(&pool), buf_(pool.acquire(min_capacity)) {}
  ~PoolLease() {
    if (pool_ != nullptr) pool_->release(std::move(buf_));
  }

  PoolLease(PoolLease&& other) noexcept
      : pool_(other.pool_), buf_(std::move(other.buf_)) {
    other.pool_ = nullptr;
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;
  PoolLease& operator=(PoolLease&&) = delete;

  [[nodiscard]] Bytes& operator*() STRATO_LIFETIME_BOUND { return buf_; }
  [[nodiscard]] Bytes* operator->() STRATO_LIFETIME_BOUND { return &buf_; }
  /// Read view of the leased bytes; dies with the lease.
  [[nodiscard]] ByteSpan span() const STRATO_LIFETIME_BOUND {
    return {buf_.data(), buf_.size()};
  }
  /// Writable view of the leased bytes; dies with the lease.
  [[nodiscard]] MutableByteSpan mutable_span() STRATO_LIFETIME_BOUND {
    return {buf_.data(), buf_.size()};
  }

 private:
  BufferPool* pool_;
  Bytes buf_;
};

}  // namespace strato::common
