#include "compress/streaming.h"

namespace strato::compress {

namespace {

/// Keep only the trailing kStreamingWindow bytes of `history`; returns
/// how many bytes it dropped from the front.
std::size_t trim_to_window(common::Bytes& history) {
  if (history.size() <= kStreamingWindow) return 0;
  const std::size_t d = history.size() - kStreamingWindow;
  history.erase(history.begin(),
                history.begin() + static_cast<std::ptrdiff_t>(d));
  return d;
}

}  // namespace

common::Bytes StreamingLzCompressor::compress_block(common::ByteSpan raw) {
  // The window and the new block are one contiguous buffer: append, then
  // compress the block over the window before it.
  const std::size_t history_len = history_.size();
  history_.insert(history_.end(), raw.begin(), raw.end());
  common::Bytes out(lz77_max_compressed_size(raw.size()));
  out.resize(lz77_compress_with_history(history_, history_len, out, heads_));
  heads_.trim(trim_to_window(history_));
  return out;
}

common::Bytes StreamingLzDecompressor::decompress_block(
    common::ByteSpan comp, std::size_t raw_size) {
  // Decode straight past the window; a failed block leaves it as it was.
  const std::size_t history_len = history_.size();
  history_.resize(history_len + raw_size);
  try {
    lz77_decompress_with_history(comp, history_, history_len, raw_size);
  } catch (...) {
    history_.resize(history_len);
    throw;
  }
  common::Bytes raw(
      history_.begin() + static_cast<std::ptrdiff_t>(history_len),
      history_.end());
  (void)trim_to_window(history_);
  return raw;
}

}  // namespace strato::compress
