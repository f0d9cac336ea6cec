#include "common/buffer_pool.h"

#include <cstring>
#include <utility>

// AddressSanitizer detection for both GCC (__SANITIZE_ADDRESS__) and Clang
// (__has_feature). When active, released pool memory is shadow-poisoned so
// a stale span dereference aborts with use-after-poison instead of reading
// the kPoisonByte pattern.
#if defined(__SANITIZE_ADDRESS__)
#define STRATO_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STRATO_POOL_ASAN 1
#endif
#endif

#if defined(STRATO_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace strato::common {

namespace {

void asan_poison_region(const Bytes& buf) {
#if defined(STRATO_POOL_ASAN)
  if (buf.capacity() != 0) {
    __asan_poison_memory_region(buf.data(), buf.capacity());
  }
#else
  (void)buf;
#endif
}

void asan_unpoison_region(const Bytes& buf) {
#if defined(STRATO_POOL_ASAN)
  if (buf.capacity() != 0) {
    __asan_unpoison_memory_region(buf.data(), buf.capacity());
  }
#else
  (void)buf;
#endif
}

/// Build default: on in Debug/sanitizer builds.
#if defined(STRATO_POOL_POISON_DEFAULT_ON)
constexpr bool kDefaultPoison = true;
#else
constexpr bool kDefaultPoison = false;
#endif

}  // namespace

BufferPool::BufferPool(std::size_t max_buffers)
    : max_buffers_(max_buffers == 0 ? 1 : max_buffers),
      poison_(kDefaultPoison) {
  // Locked even though the pool is not yet shared: the analysis (and the
  // guarded_by contract) make no constructor exception.
  MutexLock lk(mu_);
  free_.reserve(max_buffers_);
}

BufferPool::~BufferPool() {
  // Poisoned shadow must not outlive the allocations: unpoison everything
  // still parked here before the vectors free their storage. No lock:
  // destruction implies exclusive access (Clang's analysis likewise
  // leaves destructors unchecked), and a pool with static storage
  // duration is destroyed during exit teardown, after this thread's TLS
  // (and with it the LockGraph held-stack) is already gone.
  for (Bytes& buf : free_) asan_unpoison_region(buf);
  for (Bytes& buf : quarantine_) asan_unpoison_region(buf);
}

Bytes BufferPool::acquire(std::size_t min_capacity) {
  Bytes buf;
  {
    MutexLock lk(mu_);
    ++acquires_;
    if (free_.empty()) drain_quarantine_locked();
    if (!free_.empty()) {
      // Prefer a buffer that is already large enough so steady-state reuse
      // never re-reserves; otherwise grow the last one.
      std::size_t pick = free_.size() - 1;
      for (std::size_t i = 0; i < free_.size(); ++i) {
        if (free_[i].capacity() >= min_capacity) {
          pick = i;
          break;
        }
      }
      buf = std::move(free_[pick]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
      ++reuses_;
      if (poison_) {
        unpoison_locked(buf);
        if (buf.capacity() < min_capacity) {
          // The reserve below reallocates: the tracked address dies here,
          // so drop its tag rather than let a recycled address inherit it.
          gen_.erase(buf.data());
        }
      }
    }
  }
  buf.clear();
  buf.reserve(min_capacity);
  return buf;
}

void BufferPool::release(Bytes buf) {
  MutexLock lk(mu_);
  if (poison_) poison_locked(buf);
  if (quarantine_depth_ == 0) {
    // No hold: straight to the free list, with no FIFO node to allocate.
    park_locked(std::move(buf));
    return;
  }
  quarantine_.push_back(std::move(buf));
  drain_quarantine_locked();
}

void BufferPool::poison_locked(Bytes& buf) {
  if (buf.capacity() == 0) return;
  // Stamp the bytes a stale span would read, tag the new generation, then
  // (under ASan) make the whole region inaccessible until re-acquired.
  if (buf.size() != 0) std::memset(buf.data(), kPoisonByte, buf.size());
  ++gen_[buf.data()];
  ++generations_;
  ++poisons_;
  asan_poison_region(buf);
}

void BufferPool::unpoison_locked(Bytes& buf) {
  if (buf.capacity() == 0) return;
  asan_unpoison_region(buf);
  ++unpoisons_;
}

void BufferPool::park_locked(Bytes buf) {
  if (free_.size() >= max_buffers_) {
    ++drops_;
    // The allocation is about to be freed: shadow and tag die with it.
    asan_unpoison_region(buf);
    gen_.erase(buf.data());
    return;  // buf freed on scope exit
  }
  free_.push_back(std::move(buf));
}

void BufferPool::drain_quarantine_locked() {
  while (quarantine_.size() > quarantine_depth_) {
    Bytes buf = std::move(quarantine_.front());
    quarantine_.pop_front();
    park_locked(std::move(buf));
  }
}

void BufferPool::set_poison(bool enabled) {
  MutexLock lk(mu_);
  if (poison_ && !enabled) {
    // Buffers poisoned while the mode was on must become readable again —
    // later acquires would otherwise skip the unpoison step.
    for (Bytes& buf : free_) asan_unpoison_region(buf);
    for (Bytes& buf : quarantine_) asan_unpoison_region(buf);
  }
  poison_ = enabled;
}

bool BufferPool::poison_enabled() const {
  MutexLock lk(mu_);
  return poison_;
}

void BufferPool::set_quarantine(std::size_t depth) {
  MutexLock lk(mu_);
  quarantine_depth_ = depth;
  drain_quarantine_locked();
}

std::uint64_t BufferPool::generation(const void* data) const {
  MutexLock lk(mu_);
  auto it = gen_.find(data);
  return it == gen_.end() ? 0 : it->second;
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lk(mu_);
  Stats s;
  s.acquires = acquires_;
  s.reuses = reuses_;
  s.drops = drops_;
  s.free_buffers = free_.size();
  s.poisons = poisons_;
  s.unpoisons = unpoisons_;
  s.quarantined = quarantine_.size();
  s.generations = generations_;
  return s;
}

}  // namespace strato::common
