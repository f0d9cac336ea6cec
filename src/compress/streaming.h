// Streaming (cross-block) LZ compression.
//
// The paper's channel blocks are deliberately self-contained: "each block
// contains all the information to be decompressed by the receiver"
// (Section III-B) — robust and order-independent, but every block starts
// with a cold dictionary. This pair of classes implements the opposite
// design point: a rolling window carried across blocks, so later blocks
// can match into earlier ones. bench_ablation_block_independence
// quantifies what the paper's independence choice costs in ratio at
// different block sizes.
//
// Both sides must process blocks in order and share a reset schedule;
// a lost or reordered block desynchronizes the stream (exactly the
// operational cost the paper avoids).
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "compress/lz77.h"
#include "compress/lz_common.h"

namespace strato::compress {

/// Raw history both sides retain: the last 64 KiB, the reach of LIGHT's
/// 16-bit offsets. One constant, so the two sides cannot disagree.
inline constexpr std::size_t kStreamingWindow = 64 * 1024;

/// Stateful LIGHT compressor retaining up to kStreamingWindow bytes of
/// raw history.
class StreamingLzCompressor {
 public:
  /// Compress the next block; matches may reference prior blocks.
  common::Bytes compress_block(common::ByteSpan raw);

  /// Drop all history (e.g. after a downstream resync).
  void reset() {
    history_.clear();
    heads_.reset();
  }

  [[nodiscard]] std::size_t history_size() const { return history_.size(); }

 private:
  common::Bytes history_;           // rolling raw-byte window
  detail::LightWindowHeads heads_;  // match table over history_
};

/// Stateful decompressor mirroring StreamingLzCompressor block for block.
class StreamingLzDecompressor {
 public:
  /// Decompress the next block of known raw size.
  /// @throws CodecError on malformed input.
  common::Bytes decompress_block(common::ByteSpan comp, std::size_t raw_size);

  void reset() { history_.clear(); }

 private:
  common::Bytes history_;
};

}  // namespace strato::compress
