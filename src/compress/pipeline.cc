#include "compress/pipeline.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "compress/framing.h"

namespace strato::compress {

ParallelBlockPipeline::ParallelBlockPipeline(const CodecRegistry& registry,
                                             std::size_t worker_count,
                                             FrameSink sink)
    : registry_(registry),
      sink_(std::move(sink)),
      depth_(2 * std::max<std::size_t>(1, worker_count)),
      slots_(depth_),
      // raw + frame per in-flight block, both usually back in the free
      // list while a block is between acquire points.
      pool_(2 * depth_ + 2),
      workers_(worker_count > 1
                   ? std::make_unique<common::ThreadPool>(worker_count)
                   : nullptr) {}

ParallelBlockPipeline::~ParallelBlockPipeline() {
  // ThreadPool (constructed last, destroyed first) drains every accepted
  // job, so no worker can touch slots_ after this body runs. Undelivered
  // frames are simply dropped.
  if (workers_ != nullptr) workers_->shutdown();
}

void ParallelBlockPipeline::submit(int level, common::ByteSpan payload) {
  level = std::clamp(level, 0, static_cast<int>(registry_.level_count()) - 1);
  if (workers_ == nullptr) {
    // Inline: no raw copy, no slot; the sink sees the frame before submit
    // returns, and an encode error propagates from here.
    ++next_seq_;
    ++deliver_seq_;
    encode_block_into(*registry_.level(static_cast<std::size_t>(level)).codec,
                      static_cast<std::uint8_t>(level), payload,
                      inline_frame_);
    sink_(inline_frame_, payload.size(), level);
    return;
  }

  // Opportunistically drain ready frames, then make room in the window.
  deliver_ready(false);
  while (next_seq_ - deliver_seq_ >= depth_) {
    deliver_ready(true);
  }

  const std::uint64_t seq = next_seq_++;
  Slot& slot = slots_[seq % depth_];
  slot.state = Slot::State::kPending;
  slot.level = level;
  slot.raw_size = payload.size();
  slot.error = nullptr;
  slot.raw = pool_.acquire(payload.size());
  slot.raw.resize(payload.size());
  if (!payload.empty()) {
    std::memcpy(slot.raw.data(), payload.data(), payload.size());
  }

  workers_->submit([this, seq] { compress_slot(seq); });
}

void ParallelBlockPipeline::compress_slot(std::uint64_t seq) {
  Slot& slot = slots_[seq % depth_];
  std::exception_ptr error;
  common::Bytes frame = pool_.acquire(
      kFrameHeaderSize + slot.raw_size + slot.raw_size / 128 + 64);
  try {
    const Codec& codec =
        *registry_.level(static_cast<std::size_t>(slot.level)).codec;
    encode_block_into(codec, static_cast<std::uint8_t>(slot.level),
                      slot.raw, frame);
  } catch (...) {
    error = std::current_exception();
  }
  {
    common::MutexLock lk(mu_);
    slot.frame = std::move(frame);
    slot.error = error;
    slot.state = Slot::State::kReady;
  }
  ready_cv_.notify_all();
}

void ParallelBlockPipeline::deliver_ready(bool wait_for_one) {
  for (;;) {
    if (deliver_seq_ == next_seq_) return;  // nothing outstanding
    Slot& slot = slots_[deliver_seq_ % depth_];
    {
      common::MutexLock lk(mu_);
      while (slot.state != Slot::State::kReady) {
        if (!wait_for_one) return;
        ready_cv_.wait(mu_);
      }
    }
    // Past this point the slot belongs to the submitting thread again: the
    // worker finished (kReady) and no new submit can reuse it before
    // deliver_seq_ advances.
    common::Bytes frame = std::move(slot.frame);
    common::Bytes raw = std::move(slot.raw);
    const std::size_t raw_size = slot.raw_size;
    const int level = slot.level;
    const std::exception_ptr error = slot.error;
    slot = Slot{};
    ++deliver_seq_;
    pool_.release(std::move(raw));
    if (error != nullptr) {
      pool_.release(std::move(frame));
      std::rethrow_exception(error);
    }
    sink_(frame, raw_size, level);
    pool_.release(std::move(frame));
    if (wait_for_one) return;  // made room; caller decides whether to loop
  }
}

void ParallelBlockPipeline::flush() {
  while (deliver_seq_ != next_seq_) {
    deliver_ready(true);
  }
}

}  // namespace strato::compress
