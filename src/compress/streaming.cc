#include "compress/streaming.h"

#include <algorithm>

#include "common/buffer_pool.h"

namespace strato::compress {

namespace {

/// Keep only the trailing kStreamingWindow bytes of `history` after
/// appending `added`.
void roll(common::Bytes& history, common::ByteSpan added) {
  history.insert(history.end(), added.begin(), added.end());
  if (history.size() > kStreamingWindow) {
    history.erase(history.begin(),
                  history.begin() + static_cast<std::ptrdiff_t>(
                                        history.size() - kStreamingWindow));
  }
}

}  // namespace

common::Bytes StreamingLzCompressor::compress_block(common::ByteSpan raw) {
  // Contiguous work buffer (retained window followed by the new block),
  // recycled through the shared pool — one fewer per-block allocation.
  common::PoolLease buffer(common::BufferPool::shared(),
                              history_.size() + raw.size());
  buffer->insert(buffer->end(), history_.begin(), history_.end());
  buffer->insert(buffer->end(), raw.begin(), raw.end());

  common::Bytes out(lz77_max_compressed_size(raw.size()));
  out.resize(lz77_compress_with_history(*buffer, history_.size(), out));
  roll(history_, raw);
  return out;
}

common::Bytes StreamingLzDecompressor::decompress_block(
    common::ByteSpan comp, std::size_t raw_size) {
  common::PoolLease buffer(common::BufferPool::shared(),
                              history_.size() + raw_size);
  buffer->resize(history_.size() + raw_size);
  std::copy(history_.begin(), history_.end(), buffer->begin());
  lz77_decompress_with_history(comp, *buffer, history_.size(), raw_size);
  common::Bytes raw(buffer->begin() +
                        static_cast<std::ptrdiff_t>(history_.size()),
                    buffer->end());
  roll(history_, raw);
  return raw;
}

}  // namespace strato::compress
