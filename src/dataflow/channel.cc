#include "dataflow/channel.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace strato::dataflow {

namespace {

std::unique_ptr<core::CompressionPolicy> make_policy(
    const CompressionSpec& spec, const compress::CodecRegistry& registry) {
  switch (spec.mode) {
    case CompressionSpec::Mode::kNone:
      return std::make_unique<core::StaticPolicy>(0, "NO");
    case CompressionSpec::Mode::kStatic:
      return std::make_unique<core::StaticPolicy>(
          spec.static_level,
          registry.level(static_cast<std::size_t>(spec.static_level)).label);
    case CompressionSpec::Mode::kAdaptive: {
      core::AdaptiveConfig cfg = spec.adaptive;
      cfg.num_levels = static_cast<int>(registry.level_count());
      return std::make_unique<core::AdaptivePolicy>(cfg, spec.window);
    }
  }
  throw std::logic_error("bad compression mode");
}

// ---------------------------------------------------------------------------
// In-memory channel
// ---------------------------------------------------------------------------

class InMemoryChannel final : public Channel {
 public:
  explicit InMemoryChannel(std::size_t capacity)
      : ring_(capacity), writer_(*this), reader_(*this) {}

  ChannelWriter& writer() override { return writer_; }
  ChannelReader& reader() override { return reader_; }

  ChannelStats stats() const override {
    ChannelStats s;
    s.records = records_.load(std::memory_order_relaxed);
    s.raw_bytes = bytes_.load(std::memory_order_relaxed);
    s.wire_bytes = s.raw_bytes;  // nothing is compressed in memory
    return s;
  }

 private:
  class Writer final : public ChannelWriter {
   public:
    explicit Writer(InMemoryChannel& ch) : ch_(ch) {}
    void emit(common::ByteSpan record) override {
      ch_.ring_.push(common::Bytes(record.begin(), record.end()));
      ch_.records_.fetch_add(1, std::memory_order_relaxed);
      ch_.bytes_.fetch_add(record.size(), std::memory_order_relaxed);
    }
    void close() override { ch_.ring_.close(); }

   private:
    InMemoryChannel& ch_;
  };

  class Reader final : public ChannelReader {
   public:
    explicit Reader(InMemoryChannel& ch) : ch_(ch) {}
    std::optional<common::Bytes> next() override { return ch_.ring_.pop(); }

   private:
    InMemoryChannel& ch_;
  };

  common::SpscRing<common::Bytes> ring_;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_{0};
  Writer writer_;
  Reader reader_;
};

// ---------------------------------------------------------------------------
// Compressed byte-stream channels (network / file) share this base: the
// writer pushes records through a CompressingWriter into some byte
// transport; the reader pulls transport bytes through DecompressingReader
// and a RecordAssembler.
// ---------------------------------------------------------------------------

class CompressedChannelBase : public Channel {
 public:
  CompressedChannelBase(const CompressionSpec& spec,
                        const compress::CodecRegistry& registry,
                        std::size_t block_size, core::ByteSink& sink)
      : registry_(registry),
        policy_(make_policy(spec, registry)),
        compressing_writer_(sink, registry, *policy_, clock_, block_size,
                            spec.worker_count),
        decompressing_reader_(registry) {}

  ChannelStats stats() const override {
    ChannelStats s;
    s.records = records_.load(std::memory_order_relaxed);
    s.raw_bytes = compressing_writer_.raw_bytes();
    s.wire_bytes = compressing_writer_.framed_bytes();
    s.blocks_per_level = compressing_writer_.blocks_per_level();
    return s;
  }

 protected:
  // Writer-side helpers (single writer thread).
  void write_record(common::ByteSpan record) {
    scratch_.clear();
    append_record(scratch_, record);
    compressing_writer_.write(scratch_);
    records_.fetch_add(1, std::memory_order_relaxed);
  }
  void flush_writer() { compressing_writer_.flush(); }

  // Reader-side helpers (single reader thread). `pull` supplies transport
  // bytes; empty result = EOF.
  template <typename PullFn>
  std::optional<common::Bytes> read_record(PullFn&& pull) {
    for (;;) {
      if (auto rec = records_in_.next_record()) return rec;
      // Zero-copy hand-off: the decoded block is a lease into the decode
      // pipeline's pooled buffer; RecordAssembler copies what it keeps.
      if (auto block = decompressing_reader_.next_block_view()) {
        records_in_.feed(block->data);
        continue;
      }
      const common::Bytes chunk = pull();
      if (chunk.empty()) {
        if (!records_in_.drained()) {
          throw compress::CodecError("channel: truncated record stream");
        }
        return std::nullopt;
      }
      decompressing_reader_.feed(chunk);
    }
  }

  const compress::CodecRegistry& registry_;
  common::SteadyClock clock_;
  std::unique_ptr<core::CompressionPolicy> policy_;
  core::CompressingWriter compressing_writer_;
  core::DecompressingReader decompressing_reader_;
  RecordAssembler records_in_;
  common::Bytes scratch_;
  std::atomic<std::uint64_t> records_{0};
};

// ---------------------------------------------------------------------------
// Network channel
// ---------------------------------------------------------------------------

class NetworkChannel final : public CompressedChannelBase {
 public:
  NetworkChannel(std::shared_ptr<core::LinkShare> link,
                 const CompressionSpec& spec,
                 const compress::CodecRegistry& registry,
                 std::size_t block_size)
      : CompressedChannelBase(spec, registry, block_size, pipe_),
        pipe_(std::move(link)),
        writer_(*this),
        reader_(*this) {}

  ChannelWriter& writer() override { return writer_; }
  ChannelReader& reader() override { return reader_; }

 private:
  class Writer final : public ChannelWriter {
   public:
    explicit Writer(NetworkChannel& ch) : ch_(ch) {}
    void emit(common::ByteSpan record) override { ch_.write_record(record); }
    void close() override {
      ch_.flush_writer();
      ch_.pipe_.close();
    }

   private:
    NetworkChannel& ch_;
  };

  class Reader final : public ChannelReader {
   public:
    explicit Reader(NetworkChannel& ch) : ch_(ch) {}
    std::optional<common::Bytes> next() override {
      return ch_.read_record([this] { return ch_.pipe_.read(64 * 1024); });
    }

   private:
    NetworkChannel& ch_;
  };

  core::ThrottledPipe pipe_;
  Writer writer_;
  Reader reader_;
};

// ---------------------------------------------------------------------------
// File channel
// ---------------------------------------------------------------------------

/// ByteSink appending to a stdio file.
class FileSink final : public core::ByteSink {
 public:
  explicit FileSink(const std::string& path)
      : f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) {
      throw std::runtime_error("file channel: cannot open " + path);
    }
  }
  ~FileSink() override { close(); }

  void write(common::ByteSpan data) override {
    if (f_ && std::fwrite(data.data(), 1, data.size(), f_) != data.size()) {
      throw std::runtime_error("file channel: short write");
    }
  }
  void flush() override {
    if (f_) std::fflush(f_);
  }
  void close() {
    if (f_) {
      std::fclose(f_);
      f_ = nullptr;
    }
  }

 private:
  std::FILE* f_;
};

class FileChannel final : public CompressedChannelBase {
 public:
  FileChannel(std::string path, const CompressionSpec& spec,
              const compress::CodecRegistry& registry, std::size_t block_size)
      : CompressedChannelBase(spec, registry, block_size, sink_),
        path_(std::move(path)),
        sink_(path_),
        writer_(*this),
        reader_(*this) {}

  ChannelWriter& writer() override { return writer_; }
  ChannelReader& reader() override { return reader_; }

 private:
  void mark_done() {
    {
      common::MutexLock lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

  void wait_done() {
    common::MutexLock lk(mu_);
    while (!done_) cv_.wait(mu_);
  }

  class Writer final : public ChannelWriter {
   public:
    explicit Writer(FileChannel& ch) : ch_(ch) {}
    void emit(common::ByteSpan record) override { ch_.write_record(record); }
    void close() override {
      ch_.flush_writer();
      ch_.sink_.close();
      ch_.mark_done();
    }

   private:
    FileChannel& ch_;
  };

  class Reader final : public ChannelReader {
   public:
    explicit Reader(FileChannel& ch) : ch_(ch) {}
    std::optional<common::Bytes> next() override {
      if (!opened_) {
        ch_.wait_done();
        in_ = std::fopen(ch_.path_.c_str(), "rb");
        if (in_ == nullptr) {
          throw std::runtime_error("file channel: cannot reopen " + ch_.path_);
        }
        opened_ = true;
      }
      auto rec = ch_.read_record([this] {
        common::Bytes chunk(64 * 1024);
        const std::size_t n = in_ ? std::fread(chunk.data(), 1, chunk.size(), in_) : 0;
        chunk.resize(n);
        return chunk;
      });
      if (!rec && in_) {
        std::fclose(in_);
        in_ = nullptr;
      }
      return rec;
    }
    ~Reader() override {
      if (in_) std::fclose(in_);
    }

   private:
    FileChannel& ch_;
    std::FILE* in_ = nullptr;
    bool opened_ = false;
  };

  std::string path_;
  FileSink sink_;
  common::Mutex mu_{"FileChannel::mu_"};
  common::CondVar cv_;
  bool done_ STRATO_GUARDED_BY(mu_) = false;
  Writer writer_;
  Reader reader_;
};

}  // namespace

std::unique_ptr<Channel> make_inmemory_channel(std::size_t capacity_records) {
  return std::make_unique<InMemoryChannel>(capacity_records);
}

std::unique_ptr<Channel> make_network_channel(
    std::shared_ptr<core::LinkShare> link, const CompressionSpec& spec,
    const compress::CodecRegistry& registry, std::size_t block_size) {
  return std::make_unique<NetworkChannel>(std::move(link), spec, registry,
                                          block_size);
}

std::unique_ptr<Channel> make_file_channel(
    const std::string& path, const CompressionSpec& spec,
    const compress::CodecRegistry& registry, std::size_t block_size) {
  return std::make_unique<FileChannel>(path, spec, registry, block_size);
}

}  // namespace strato::dataflow
