// Single-core codec kernel trajectory: encode/decode throughput and ratio
// for every ladder level on every corpus class. Emits one JSON object on
// stdout and mirrors it to the file named by argv[1] (the committed
// BENCH_codec.json trajectory, gated by scripts/check_bench.sh).
//
// These rows are the per-core numbers behind CodecModel::defaults() and
// the speed/ratio ladder Algorithm 1 assumes; unlike the pipeline benches
// they involve no worker threads, so they isolate raw kernel speed (the
// lever the SIMD layer in common/simd.h exists to move).
//
// A row is one corpus × level × op over 32 blocks of 128 KiB, each block
// coded on its own into one reused buffer. Rows are timed in rounds
// (scaling_rounds.h): a warm-up round, then 5 rounds that each run every
// row once, so host drift hits every row alike. `mib_per_s` is the row's
// median rate (timing) and `mib_per_s_iqr` its interquartile range
// (info). `blocks`, `ratio` and `digest` are det fields: `digest` is the
// XXH64 of the row's output (the encoded blocks back to back, or the
// decoded corpus), taken between blocks outside the timed spans, and the
// bench exits 1 when any round's digest differs from its row's first.
//
// Before timing anything the bench proves wire identity between the
// active SIMD instruction set and the forced-scalar kernels for every
// level × corpus — a fast cross-check of the property the oracle and the
// simd tests enforce in depth.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "common/simd.h"
#include "compress/registry.h"
#include "corpus/generator.h"
#include "scaling_rounds.h"

namespace {

using strato::bench::JsonWriter;
using strato::bench::RoundResult;
using strato::common::Bytes;
using strato::common::ByteSpan;
using strato::compress::CodecRegistry;
using strato::corpus::Compressibility;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr std::size_t kBlocksPerCorpus = 32;  // 4 MiB per configuration
constexpr std::uint64_t kCorpusSeed = 7;
constexpr Compressibility kCorpora[] = {
    Compressibility::kHigh, Compressibility::kModerate, Compressibility::kLow};

std::vector<Bytes> make_corpus(Compressibility c) {
  auto gen = strato::corpus::make_generator(c, kCorpusSeed);
  std::vector<Bytes> blocks;
  blocks.reserve(kBlocksPerCorpus);
  for (std::size_t i = 0; i < kBlocksPerCorpus; ++i) {
    blocks.push_back(strato::corpus::take(*gen, kBlockSize));
  }
  return blocks;
}

/// Encode wires must be byte-identical whichever kernel table is active;
/// decode must invert them exactly. Any mismatch is a correctness bug in
/// the SIMD layer, not a perf detail.
bool identity_check(const CodecRegistry& registry) {
  for (std::size_t level = 1; level < registry.level_count(); ++level) {
    const auto& codec = *registry.level(level).codec;
    for (const auto c : kCorpora) {
      auto gen = strato::corpus::make_generator(c, 42);
      const Bytes data = strato::corpus::take(*gen, 96 * 1024 + 13);
      const Bytes wire_active = codec.compress(data);
      Bytes wire_scalar;
      {
        strato::common::simd::ScopedIsa forced(
            strato::common::simd::Isa::kScalar);
        wire_scalar = codec.compress(data);
      }
      if (wire_active != wire_scalar) {
        std::fprintf(stderr, "identity FAILED (encode) level %zu\n", level);
        return false;
      }
      Bytes back(data.size());
      if (codec.decompress(wire_active, back) != data.size() || back != data) {
        std::fprintf(stderr, "identity FAILED (decode) level %zu\n", level);
        return false;
      }
    }
  }
  return true;
}

/// One corpus at one level: the encode row codes `corpus` (an index into
/// the raw corpora), the decode row replays `wires`, its encoded blocks.
struct Config {
  std::size_t corpus = 0;
  std::size_t level = 0;
  std::vector<Bytes> wires;
  std::size_t wire_bytes = 0;
};

/// Runs code(k) -> the bytes block k wrote, for every block, timing only
/// the calls; the digest absorbs each block's output between them.
template <typename Code>
RoundResult timed_blocks(Code code) {
  strato::common::Xxh64State digest;
  double secs = 0.0;
  for (std::size_t k = 0; k < kBlocksPerCorpus; ++k) {
    const auto start = std::chrono::steady_clock::now();
    const ByteSpan written = code(k);
    const auto end = std::chrono::steady_clock::now();
    secs += std::chrono::duration<double>(end - start).count();
    digest.update(written);
  }
  return {secs, digest.digest()};
}

}  // namespace

int main(int argc, char** argv) {
  const CodecRegistry& registry = CodecRegistry::extended();
  if (!identity_check(registry)) return 1;

  // Every row's input is built before timing. Row 2k encodes configs[k]
  // and row 2k + 1 decodes it, in corpus, then level order.
  std::vector<std::vector<Bytes>> corpora;
  std::vector<Config> configs;
  std::size_t max_wire = 0;
  for (std::size_t c = 0; c < std::size(kCorpora); ++c) {
    corpora.push_back(make_corpus(kCorpora[c]));
    for (std::size_t level = 1; level < registry.level_count(); ++level) {
      const auto& codec = *registry.level(level).codec;
      Config config{c, level, {}, 0};
      for (const Bytes& b : corpora[c]) {
        config.wires.push_back(codec.compress(b));
        config.wire_bytes += config.wires.back().size();
      }
      configs.push_back(std::move(config));
      max_wire = std::max(max_wire, codec.max_compressed_size(kBlockSize));
    }
  }

  const double raw = static_cast<double>(kBlocksPerCorpus * kBlockSize);
  Bytes encoded(max_wire);
  Bytes decoded(kBlockSize);
  const auto stats = strato::bench::time_rows(
      2 * configs.size(), raw / (1024.0 * 1024.0), [&](std::size_t row) {
        const Config& config = configs[row / 2];
        const auto& codec = *registry.level(config.level).codec;
        if (row % 2 == 0) {
          return timed_blocks([&](std::size_t k) {
            return ByteSpan(encoded).first(
                codec.compress(corpora[config.corpus][k], encoded));
          });
        }
        return timed_blocks([&](std::size_t k) {
          return ByteSpan(decoded).first(
              codec.decompress(config.wires[k], decoded));
        });
      });
  if (!stats) return 1;

  JsonWriter out("codec_micro");
  out.det("block_size", kBlockSize);
  out.det("blocks", kBlocksPerCorpus);
  out.det("corpus_seed", kCorpusSeed);
  out.info("hardware_concurrency", std::thread::hardware_concurrency());
  out.info("simd_isa", strato::common::simd::to_string(
                           strato::common::simd::active_isa()));
  out.det("identity_check", "pass");
  for (std::size_t row = 0; row < stats->size(); ++row) {
    const Config& config = configs[row / 2];
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>((*stats)[row].digest));
    out.row();
    out.det("corpus", strato::corpus::to_string(kCorpora[config.corpus]));
    out.det("level", registry.level(config.level).label);
    out.det("op", row % 2 == 0 ? "encode" : "decode");
    out.det("blocks", kBlocksPerCorpus);
    out.det("ratio", static_cast<double>(config.wire_bytes) / raw, 4);
    out.det("digest", digest);
    strato::bench::write_rate(out, (*stats)[row]);
  }
  return out.write(argc, argv);
}
