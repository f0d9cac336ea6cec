#include "compress/pipeline.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "compress/framing.h"

namespace strato::compress {

ParallelBlockPipeline::ParallelBlockPipeline(const CodecRegistry& registry,
                                             std::size_t worker_count,
                                             FrameSink sink)
    : registry_(registry),
      sink_(std::move(sink)),
      // raw + frame per in-flight block, both usually back in the free
      // list while a block is between acquire points.
      pool_(2 * detail::ReorderWindow<Slot>::depth_for(worker_count) + 2),
      window_(worker_count, [this](Slot& s) {
        s.frame = pool_.acquire(kFrameHeaderSize + s.raw_size +
                                s.raw_size / 128 + 64);
        encode(s.level, s.raw, s.frame);
      }) {}

void ParallelBlockPipeline::encode(int level, common::ByteSpan raw,
                                   common::Bytes& frame) const {
  encode_block_into(*registry_.level(static_cast<std::size_t>(level)).codec,
                    static_cast<std::uint8_t>(level), raw, frame);
}

void ParallelBlockPipeline::submit(int level, common::ByteSpan payload) {
  level = std::clamp(level, 0, static_cast<int>(registry_.level_count()) - 1);
  if (window_.worker_count() == 0) {
    // Inline: no raw copy, no window cell; the sink sees the frame before
    // submit returns, and an encode error propagates from here.
    ++inline_blocks_;
    encode(level, payload, inline_frame_);
    sink_(inline_frame_, payload.size(), level);
    return;
  }

  // Opportunistically drain ready frames, then make room in the window.
  deliver_ready(false);
  while (window_.full()) deliver_ready(true);

  Slot& slot = window_.next_slot();
  slot.raw_size = payload.size();
  slot.level = level;
  slot.raw = pool_.acquire(payload.size());
  slot.raw.assign(payload.begin(), payload.end());
  window_.start();
}

void ParallelBlockPipeline::deliver_ready(bool wait_for_one) {
  while (!window_.empty() && window_.head_ready(wait_for_one)) {
    // The popped slot stays ours until the next submit reuses its cell.
    Slot& slot = window_.head();
    const std::exception_ptr error = window_.head_error();
    window_.pop();
    pool_.release(std::move(slot.raw));
    if (error != nullptr) {
      pool_.release(std::move(slot.frame));
      std::rethrow_exception(error);
    }
    sink_(slot.frame, slot.raw_size, slot.level);
    pool_.release(std::move(slot.frame));
    if (wait_for_one) return;  // made room; caller decides whether to loop
  }
}

void ParallelBlockPipeline::flush() {
  while (!window_.empty()) deliver_ready(true);
}

}  // namespace strato::compress
