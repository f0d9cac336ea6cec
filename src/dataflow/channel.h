// Dataflow channels — the Nephele channel types (Section III-B).
//
// Nephele supports in-memory, TCP network and file channels; the paper
// integrated adaptive compression into the latter two, transparently to
// task code. We reproduce that split:
//
//  * InMemoryChannel — record queue between co-located tasks, never
//    compressed (as in Nephele);
//  * NetworkChannel  — records -> 128 KB blocks -> policy-selected codec ->
//    framed bytes through a bandwidth-throttled pipe (the shared link);
//  * FileChannel     — same compression path into a spill file; the reader
//    starts once the writer finishes.
//
// Every channel is a writer endpoint plus a reader endpoint usable from
// two different task threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/spsc_ring.h"
#include "core/stream.h"
#include "core/throttled_pipe.h"
#include "dataflow/record.h"

namespace strato::dataflow {

/// Channel kinds, mirroring Nephele.
enum class ChannelType { kInMemory, kNetwork, kFile };

/// Per-channel transfer statistics.
struct ChannelStats {
  std::uint64_t records = 0;
  std::uint64_t raw_bytes = 0;    ///< serialized record bytes
  std::uint64_t wire_bytes = 0;   ///< framed bytes after compression
  std::vector<std::uint64_t> blocks_per_level;
};

/// Writer endpoint handed to the producing task.
class ChannelWriter {
 public:
  virtual ~ChannelWriter() = default;
  /// Emit one record (blocking under backpressure).
  virtual void emit(common::ByteSpan record) = 0;
  /// Signal end-of-stream; flushes buffered blocks.
  virtual void close() = 0;
};

/// Reader endpoint handed to the consuming task.
class ChannelReader {
 public:
  virtual ~ChannelReader() = default;
  /// Next record; nullopt = end of stream.
  [[nodiscard]] virtual std::optional<common::Bytes> next() = 0;
};

/// A constructed channel: both endpoints plus its stats (valid after both
/// sides are done).
class Channel {
 public:
  virtual ~Channel() = default;
  [[nodiscard]] virtual ChannelWriter& writer() = 0;
  [[nodiscard]] virtual ChannelReader& reader() = 0;
  [[nodiscard]] virtual ChannelStats stats() const = 0;
};

/// Compression configuration of a channel.
struct CompressionSpec {
  enum class Mode { kNone, kStatic, kAdaptive } mode = Mode::kNone;
  int static_level = 0;
  core::AdaptiveConfig adaptive;
  /// Decision interval t for the adaptive mode (paper: 2 s).
  common::SimTime window = common::SimTime::seconds(2);
  /// Compression worker threads. 1 (default) compresses inline on the
  /// writing task's thread; > 1 fans blocks out to the pipeline's workers.
  /// The wire format is identical either way.
  std::size_t worker_count = 1;

  /// Builder: enable parallel block compression on this channel.
  [[nodiscard]] CompressionSpec with_workers(std::size_t workers) const {
    CompressionSpec s = *this;
    s.worker_count = workers;
    return s;
  }

  static CompressionSpec none() { return {}; }
  static CompressionSpec fixed(int level) {
    CompressionSpec s;
    s.mode = Mode::kStatic;
    s.static_level = level;
    return s;
  }
  static CompressionSpec adaptive_default(
      common::SimTime window = common::SimTime::seconds(2)) {
    CompressionSpec s;
    s.mode = Mode::kAdaptive;
    s.window = window;
    return s;
  }
};

/// In-memory channel: a bounded record queue (no compression).
std::unique_ptr<Channel> make_inmemory_channel(std::size_t capacity_records = 64);

/// Network channel over a throttled pipe. Pass a shared LinkShare to make
/// several channels contend for the same bandwidth (shared I/O).
std::unique_ptr<Channel> make_network_channel(
    std::shared_ptr<core::LinkShare> link, const CompressionSpec& spec,
    const compress::CodecRegistry& registry =
        compress::CodecRegistry::standard(),
    std::size_t block_size = compress::kDefaultBlockSize);

/// File channel spilling through `path`; the reader blocks until close().
std::unique_ptr<Channel> make_file_channel(
    const std::string& path, const CompressionSpec& spec,
    const compress::CodecRegistry& registry =
        compress::CodecRegistry::standard(),
    std::size_t block_size = compress::kDefaultBlockSize);

}  // namespace strato::dataflow
