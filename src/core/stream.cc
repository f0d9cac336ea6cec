#include "core/stream.h"

#include <cstring>

namespace strato::core {

CompressingWriter::CompressingWriter(ByteSink& sink,
                                     const compress::CodecRegistry& registry,
                                     CompressionPolicy& policy,
                                     const common::Clock& clock,
                                     std::size_t block_size,
                                     std::size_t worker_count)
    : sink_(sink),
      policy_(policy),
      clock_(clock),
      block_size_(block_size == 0 ? compress::kDefaultBlockSize : block_size),
      buffer_(block_size_),
      counters_(metrics_, metrics::BlockCounters::kTx, registry.level_count()),
      pipeline_(registry, worker_count,
                [this](common::ByteSpan frame, std::size_t raw_size,
                       int level) { account_frame(frame, raw_size, level); }) {}

void CompressingWriter::write(common::ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n =
        std::min(data.size() - off, block_size_ - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data() + off, n);
    buffered_ += n;
    off += n;
    if (buffered_ == block_size_) emit_block();
  }
}

void CompressingWriter::flush() {
  if (buffered_ > 0) emit_block();
  pipeline_.flush();
  sink_.flush();
}

void CompressingWriter::account_frame(common::ByteSpan frame,
                                      std::size_t raw_size, int level) {
  // The sink write may have blocked (backpressure); sample time after it
  // returns so the policy sees the achievable application data rate. The
  // pipeline runs this on the submitting thread in submission order, so
  // the decision window aggregates accepted bytes across all workers.
  sink_.write(frame);
  counters_.record(raw_size, frame.size(), static_cast<std::size_t>(level));
  policy_.on_block(raw_size, clock_.now());
}

void CompressingWriter::emit_block() {
  pipeline_.submit(policy_.level(),
                   common::ByteSpan(buffer_.data(), buffered_));
  buffered_ = 0;
}

}  // namespace strato::core
