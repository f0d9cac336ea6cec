// Single-core codec kernel trajectory: encode/decode throughput and ratio
// for every ladder level on every corpus class. Emits one JSON object on
// stdout and mirrors it to the file named by argv[1] (the committed
// BENCH_codec.json trajectory, gated by scripts/check_bench.sh).
//
// These rows are the per-core numbers behind CodecModel::defaults() and
// the speed/ratio ladder Algorithm 1 assumes; unlike the pipeline benches
// they involve no worker threads, so they isolate raw kernel speed (the
// lever the SIMD layer in common/simd.h exists to move). `blocks` and
// `ratio` are det fields and must reproduce exactly between runs;
// `mib_per_s` is a timing field (bench_json.h).
//
// Before timing anything the bench proves wire identity between the
// active SIMD instruction set and the forced-scalar kernels for every
// level × corpus — a fast cross-check of the property the oracle and the
// simd tests enforce in depth.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/simd.h"
#include "compress/registry.h"
#include "corpus/generator.h"

namespace {

using strato::bench::JsonWriter;
using strato::common::Bytes;
using strato::compress::CodecRegistry;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr std::size_t kBlocksPerCorpus = 32;  // 4 MiB per configuration
constexpr std::uint64_t kCorpusSeed = 7;
constexpr int kTimedRuns = 5;  // best-of-N after one warm-up (shared-core noise)

std::vector<Bytes> make_corpus(strato::corpus::Compressibility c) {
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
    for (const auto c : {strato::corpus::Compressibility::kHigh,
                         strato::corpus::Compressibility::kModerate,
                         strato::corpus::Compressibility::kLow}) {
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

struct Timed {
  double secs = 0.0;
  std::size_t out_bytes = 0;
};

template <typename Fn>
Timed best_of(Fn&& fn) {
  Timed best;
  best.out_bytes = fn();  // warm-up (page faults, scratch growth)
  best.secs = 1e9;
  for (int run = 0; run < kTimedRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t bytes = fn();
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - start).count();
    if (secs < best.secs) best.secs = secs;
    best.out_bytes = bytes;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const CodecRegistry& registry = CodecRegistry::extended();
  if (!identity_check(registry)) return 1;

  const strato::corpus::Compressibility corpora[] = {
      strato::corpus::Compressibility::kHigh,
      strato::corpus::Compressibility::kModerate,
      strato::corpus::Compressibility::kLow};

  JsonWriter out("codec_micro");
  out.det("block_size", kBlockSize);
  out.det("blocks", kBlocksPerCorpus);
  out.det("corpus_seed", kCorpusSeed);
  out.info("hardware_concurrency", std::thread::hardware_concurrency());
  out.info("simd_isa", strato::common::simd::to_string(
                           strato::common::simd::active_isa()));
  out.det("identity_check", "pass");

  const double raw = static_cast<double>(kBlocksPerCorpus * kBlockSize);
  const double mib = raw / (1024.0 * 1024.0);
  for (const auto c : corpora) {
    const auto blocks = make_corpus(c);
    for (std::size_t level = 1; level < registry.level_count(); ++level) {
      const auto& entry = registry.level(level);
      const auto& codec = *entry.codec;

      Bytes scratch(codec.max_compressed_size(kBlockSize));
      const Timed enc = best_of([&] {
        std::size_t total = 0;
        for (const auto& b : blocks) total += codec.compress(b, scratch);
        return total;
      });

      std::vector<Bytes> wires;
      wires.reserve(blocks.size());
      for (const auto& b : blocks) wires.push_back(codec.compress(b));
      Bytes back(kBlockSize);
      const Timed dec = best_of([&] {
        std::size_t total = 0;
        for (const auto& w : wires) total += codec.decompress(w, back);
        return total;
      });

      const double ratio = static_cast<double>(enc.out_bytes) / raw;
      for (const auto& [op, timed] : {std::pair{"encode", enc},
                                      std::pair{"decode", dec}}) {
        out.row();
        out.det("corpus", strato::corpus::to_string(c));
        out.det("level", entry.label);
        out.det("op", op);
        out.det("blocks", kBlocksPerCorpus);
        out.det("ratio", ratio, 4);
        out.info("seconds", timed.secs, 4);
        out.timing("mib_per_s", mib / timed.secs, 1);
      }
    }
  }
  return out.write(argc, argv);
}
