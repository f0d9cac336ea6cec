#include "core/throttled_pipe.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace strato::core {

void LinkShare::acquire(std::uint64_t n) {
  // Serialise claims; sleep until the bucket can cover this grant. Claims
  // are granted in lock-acquisition order, which approximates per-flow
  // fairness at block granularity. The lock is dropped around the sleep
  // (one scoped acquisition per probe) so other flows can claim meanwhile.
  // The bucket never holds more than its burst, so a larger grant waits
  // for a full bucket and takes the rest on credit: the next claim waits
  // out the deficit, and the long-run rate still holds.
  for (;;) {
    common::SimTime wait;
    {
      common::MutexLock lk(mu_);
      const common::SimTime now = clock_.now();
      const double burst = std::max(0.0, bucket_.burst());
      const std::uint64_t fit = static_cast<double>(n) <= burst
                                    ? n
                                    : static_cast<std::uint64_t>(burst);
      if (bucket_.try_consume(fit, now)) {
        if (fit < n) bucket_.consume(n - fit, now);
        return;
      }
      wait = bucket_.ready_at(fit, now) - now;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::max<std::int64_t>(wait.nanos(), 1000)));
  }
}

ThrottledPipe::ThrottledPipe(std::shared_ptr<LinkShare> link,
                             std::size_t capacity)
    : link_(std::move(link)), capacity_(capacity == 0 ? 1 : capacity) {}

void ThrottledPipe::write(common::ByteSpan data) {
  chaos_.walk(
      data, [this](common::ByteSpan clean) { write_clean(clean); },
      [](std::uint64_t stall_ns) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
      });
}

void ThrottledPipe::write_clean(common::ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // Move the stream through the link in MTU-ish grains so concurrent
    // pipes interleave like packets on a wire.
    const std::size_t grain = std::min<std::size_t>(data.size() - off, 16384);
    if (link_) link_->acquire(grain);
    {
      common::MutexLock lk(mu_);
      while (buf_.size() + grain > capacity_ && !closed_) writable_.wait(mu_);
      if (closed_) return;  // reader gone; drop silently like a RST socket
      buf_.insert(buf_.end(), data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + grain));
      transferred_ += grain;
      off += grain;
    }
    readable_.notify_one();
  }
}

void ThrottledPipe::close() {
  {
    common::MutexLock lk(mu_);
    closed_ = true;
  }
  readable_.notify_all();
  writable_.notify_all();
}

common::Bytes ThrottledPipe::read(std::size_t max_bytes) {
  common::Bytes out;
  {
    common::MutexLock lk(mu_);
    while (buf_.empty() && !closed_) readable_.wait(mu_);
    const std::size_t n = std::min(max_bytes, buf_.size());
    out.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  writable_.notify_all();
  return out;
}

std::uint64_t ThrottledPipe::transferred() const {
  common::MutexLock lk(mu_);
  return transferred_;
}

}  // namespace strato::core
