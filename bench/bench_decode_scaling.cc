// Receive-side decode scaling: decompression throughput vs worker count on
// the text-like (MODERATE) corpus at the MEDIUM and HEAVY ladder rungs,
// plus a serial-vs-parallel identity check. Emits one JSON object on
// stdout and mirrors it to the file named by argv[1] (the committed
// BENCH_decode.json trajectory, gated by scripts/check_bench.sh).
//
// Acceptance floor: on a machine with >= 4 hardware threads the best
// 4-worker row must reach 2.0x the inline serial baseline, or the bench
// exits 1 after printing its JSON. `corpus_seed`, `blocks` and `ratio` are
// det fields and must reproduce exactly between runs; `mib_per_s` is a
// timing field (bench_json.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "compress/registry.h"
#include "corpus/generator.h"

namespace {

using strato::bench::JsonWriter;
using strato::common::Bytes;
using strato::common::ByteSpan;
using strato::compress::CodecRegistry;
using strato::compress::ParallelBlockDecodePipeline;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr std::uint64_t kCorpusSeed = 1234;
constexpr std::size_t kTotalBytes = 16ull * 1024 * 1024;  // per level
constexpr std::size_t kFeedChunk = 1 << 20;  // receive in 1 MiB reads
constexpr double kSpeedupFloor = 2.0;  // best 4-worker row vs 1 worker

/// Serially encode `total_bytes` of the corpus at `level` into one wire.
Bytes make_wire(const CodecRegistry& registry, int level,
                std::size_t total_bytes, std::size_t* blocks_out) {
  auto gen = strato::corpus::make_generator(
      strato::corpus::Compressibility::kModerate, kCorpusSeed);
  const auto& codec = *registry.level(static_cast<std::size_t>(level)).codec;
  Bytes wire;
  std::size_t blocks = 0;
  for (std::size_t done = 0; done < total_bytes; done += kBlockSize) {
    const Bytes block = strato::corpus::take(*gen, kBlockSize);
    const Bytes frame = strato::compress::encode_block(
        codec, static_cast<std::uint8_t>(level), block);
    wire.insert(wire.end(), frame.begin(), frame.end());
    ++blocks;
  }
  *blocks_out = blocks;
  return wire;
}

struct RunResult {
  double secs = -1.0;
  std::uint64_t digest = 0;
  std::uint64_t blocks = 0;
};

/// Decode the whole wire, feeding in chunks and draining eagerly enough to
/// keep the reorder window full without stalling on the in-order head.
RunResult run_once(const CodecRegistry& registry, const Bytes& wire,
                   std::size_t workers) {
  RunResult r;
  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = workers});
  strato::common::Xxh64State hash;
  const auto start = std::chrono::steady_clock::now();
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min(kFeedChunk, wire.size() - off);
    pipeline.feed(ByteSpan(wire.data() + off, n));
    off += n;
    while (pipeline.blocks_parsed() - pipeline.blocks_delivered() >
           pipeline.depth()) {
      const auto block = pipeline.next_block();
      if (!block) break;
      hash.update(block->data);
      ++r.blocks;
    }
  }
  while (const auto block = pipeline.next_block()) {
    hash.update(block->data);
    ++r.blocks;
  }
  const auto end = std::chrono::steady_clock::now();
  r.digest = hash.digest();
  r.secs = std::chrono::duration<double>(end - start).count();
  return r;
}

/// Parallel delivery must be byte-identical to the serial FrameAssembler.
bool identity_check(const CodecRegistry& registry, const Bytes& wire) {
  strato::compress::FrameAssembler serial(registry);
  serial.feed(wire);
  std::vector<Bytes> expect;
  while (auto b = serial.next_block()) expect.push_back(std::move(*b));

  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = 4});
  pipeline.feed(wire);
  std::size_t i = 0;
  while (const auto block = pipeline.next_block()) {
    if (i >= expect.size() ||
        !std::equal(block->data.begin(), block->data.end(),
                    expect[i].begin(), expect[i].end())) {
      std::fprintf(stderr, "identity FAILED at block %zu\n", i);
      return false;
    }
    ++i;
  }
  return i == expect.size();
}

}  // namespace

int main(int argc, char** argv) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const int levels[] = {2, 3};  // MEDIUM, HEAVY
  const std::size_t worker_counts[] = {1, 2, 4, 8};

  JsonWriter out("decode_scaling");
  out.det("block_size", kBlockSize);
  out.det("corpus", "MODERATE");
  out.det("corpus_seed", kCorpusSeed);
  out.det("total_mib", kTotalBytes >> 20);
  out.info("hardware_concurrency", std::thread::hardware_concurrency());

  // Identity gate before any timing: every level's wire, 4 workers vs
  // serial. A mismatch is a correctness bug, not a perf detail.
  for (const int level : levels) {
    std::size_t blocks = 0;
    const Bytes wire = make_wire(registry, level, kTotalBytes, &blocks);
    if (!identity_check(registry, wire)) return 1;
  }
  out.det("identity_check", "pass");

  double best_at_4 = 0.0;
  for (const int level : levels) {
    std::size_t blocks = 0;
    const Bytes wire = make_wire(registry, level, kTotalBytes, &blocks);
    const double raw = static_cast<double>(blocks * kBlockSize);
    const double mib = raw / (1024.0 * 1024.0);
    double base = -1.0;
    std::uint64_t digest0 = 0;
    for (const std::size_t workers : worker_counts) {
      run_once(registry, wire, workers);  // warm-up (pools, page faults)
      const RunResult r = run_once(registry, wire, workers);
      if (workers == 1) {
        base = r.secs;
        digest0 = r.digest;
      } else if (r.digest != digest0) {
        std::fprintf(stderr, "digest mismatch at workers=%zu\n", workers);
        return 1;
      }
      if (workers == 4) best_at_4 = std::max(best_at_4, base / r.secs);
      out.row();
      out.det("level", registry.level(static_cast<std::size_t>(level)).label);
      out.det("workers", workers);
      out.det("blocks", blocks);
      out.det("ratio", static_cast<double>(wire.size()) / raw, 4);
      out.info("seconds", r.secs, 4);
      out.timing("mib_per_s", mib / r.secs, 1);
      out.info("speedup_vs_1", base / r.secs, 2);
    }
  }
  const int rc = out.write(argc, argv);
  if (std::thread::hardware_concurrency() >= 4 && best_at_4 < kSpeedupFloor) {
    std::fprintf(stderr,
                 "decode_scaling: best speedup at 4 workers %.2f is below "
                 "the %.1fx floor\n",
                 best_at_4, kSpeedupFloor);
    return 1;
  }
  return rc;
}
