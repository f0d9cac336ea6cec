// stratoz — a command-line file compressor built on the library.
//
//   stratoz c <input> <output> [level|adaptive [MB/s]]   compress
//   stratoz d <input> <output>                           decompress
//
// Compression writes the library's self-contained framed blocks (128 KB,
// magic/level/codec/sizes/XXH64), so any corrupted region is detected on
// decompression and blocks may even be decoded independently. In
// "adaptive" mode the output path is rate-limited to the given budget and
// the paper's controller picks the level per block — a file-level demo of
// the exact pipeline the channels use.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/policy.h"
#include "core/stream.h"
#include "core/throttled_pipe.h"
#include "corpus/generator.h"

using namespace strato;

namespace {

class FileByteSink final : public core::ByteSink {
 public:
  explicit FileByteSink(const std::string& path)
      : out_(path, std::ios::binary) {}
  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }
  void write(common::ByteSpan data) override {
    out_.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
    written_ += data.size();
  }
  void flush() override { out_.flush(); }
  [[nodiscard]] std::uint64_t written() const { return written_; }

 private:
  std::ofstream out_;
  std::uint64_t written_ = 0;
};

/// Sink that throttles before writing (the "slow uplink" of adaptive mode).
class ThrottledFileSink final : public core::ByteSink {
 public:
  ThrottledFileSink(const std::string& path, double bytes_per_s)
      : file_(path), link_(bytes_per_s) {}
  [[nodiscard]] bool ok() const { return file_.ok(); }
  void write(common::ByteSpan data) override {
    link_.acquire(data.size());
    file_.write(data);
  }
  void flush() override { file_.flush(); }
  [[nodiscard]] std::uint64_t written() const { return file_.written(); }

 private:
  FileByteSink file_;
  core::LinkShare link_;
};

int do_compress(const std::string& in_path, const std::string& out_path,
                const std::string& mode, double budget_mb_s) {
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
    return 1;
  }

  const auto& registry = compress::CodecRegistry::standard();
  std::unique_ptr<core::CompressionPolicy> policy;
  std::unique_ptr<core::ByteSink> sink;
  if (mode == "adaptive") {
    core::AdaptiveConfig cfg;
    cfg.num_levels = static_cast<int>(registry.level_count());
    policy = std::make_unique<core::AdaptivePolicy>(cfg,
                                                    common::SimTime::ms(250));
    auto throttled =
        std::make_unique<ThrottledFileSink>(out_path, budget_mb_s * 1e6);
    if (!throttled->ok()) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    sink = std::move(throttled);
  } else {
    const int level = std::atoi(mode.c_str());
    if (level < 0 || level >= static_cast<int>(registry.level_count())) {
      std::fprintf(stderr, "bad level %s (0..3 or 'adaptive')\n",
                   mode.c_str());
      return 1;
    }
    policy = std::make_unique<core::StaticPolicy>(
        level, registry.level(static_cast<std::size_t>(level)).label);
    auto plain = std::make_unique<FileByteSink>(out_path);
    if (!plain->ok()) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    sink = std::move(plain);
  }

  common::SteadyClock clock;
  core::CompressingWriter writer(*sink, registry, *policy, clock);
  common::Bytes buf(256 * 1024);
  const auto t0 = clock.now();
  while (in) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    if (n == 0) break;
    writer.write(common::ByteSpan(buf.data(), n));
  }
  writer.flush();
  const double secs = (clock.now() - t0).to_seconds();

  std::printf("%llu -> %llu bytes (ratio %.3f) in %.2f s",
              static_cast<unsigned long long>(writer.raw_bytes()),
              static_cast<unsigned long long>(writer.framed_bytes()),
              writer.raw_bytes()
                  ? static_cast<double>(writer.framed_bytes()) /
                        static_cast<double>(writer.raw_bytes())
                  : 1.0,
              secs);
  std::printf("  blocks per level:");
  for (std::size_t l = 0; l < registry.level_count(); ++l) {
    std::printf(" %s=%llu", registry.level(l).label.c_str(),
                static_cast<unsigned long long>(
                    writer.blocks_per_level()[l]));
  }
  std::printf("\n");
  return 0;
}

int do_decompress(const std::string& in_path, const std::string& out_path) {
  std::ifstream in(in_path, std::ios::binary);
  std::ofstream out(out_path, std::ios::binary);
  if (!in || !out) {
    std::fprintf(stderr, "cannot open input/output\n");
    return 1;
  }
  core::DecompressingReader reader(compress::CodecRegistry::standard());
  common::Bytes buf(256 * 1024);
  try {
    for (;;) {
      in.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
      const auto n = static_cast<std::size_t>(in.gcount());
      if (n == 0) break;
      reader.feed(common::ByteSpan(buf.data(), n));
      while (auto block = reader.next_block_view()) {
        out.write(reinterpret_cast<const char*>(block->data.data()),
                  static_cast<std::streamsize>(block->data.size()));
      }
    }
  } catch (const compress::CodecError& e) {
    std::fprintf(stderr, "corrupt archive: %s\n", e.what());
    return 2;
  }
  std::printf("%llu bytes restored\n",
              static_cast<unsigned long long>(reader.raw_bytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "c") == 0) {
    const std::string mode = argc >= 5 ? argv[4] : "adaptive";
    const double budget = argc >= 6 ? std::atof(argv[5]) : 25.0;
    return do_compress(argv[2], argv[3], mode, budget);
  }
  if (argc == 4 && std::strcmp(argv[1], "d") == 0) {
    return do_decompress(argv[2], argv[3]);
  }
  std::printf(
      "usage:\n"
      "  %s c <input> <output> [level|adaptive [MB/s]]\n"
      "  %s d <input> <output>\n"
      "Without a demo file handy, try:\n"
      "  head -c 8000000 /dev/urandom > /tmp/low.bin && %s c /tmp/low.bin "
      "/tmp/low.z 1\n",
      argv[0], argv[0], argv[0]);
  return argc == 1 ? 0 : 1;
}
