// Receive-side decode scaling: decompression throughput vs worker count on
// the text-like (MODERATE) corpus at the MEDIUM and HEAVY ladder rungs,
// plus a serial-vs-parallel identity check. Emits one JSON object on
// stdout and mirrors it to the file named by argv[1] (the committed
// BENCH_decode.json trajectory, gated by scripts/check_bench.sh).
//
// Each level is timed in rounds over every worker count
// (scaling_rounds.h); every run's output must hash to the 1-worker
// digest. Acceptance floor: on a machine with >= 4 hardware threads the
// best 4-worker row's median must reach 2.0x the inline serial median,
// or the bench exits 1 after printing its JSON. `corpus_seed`, `blocks`
// and `ratio` are det fields and must reproduce exactly between runs;
// `mib_per_s` is a timing field (bench_json.h).
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
#include "scaling_rounds.h"

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

/// Decode the whole wire, feeding in chunks and draining eagerly enough to
/// keep the reorder window full without stalling on the in-order head.
strato::bench::RoundResult run_once(const CodecRegistry& registry,
                                    const Bytes& wire, std::size_t workers) {
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
    }
  }
  while (const auto block = pipeline.next_block()) hash.update(block->data);
  const auto end = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(end - start).count(), hash.digest()};
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
    const auto rows = strato::bench::time_rounds(
        worker_counts, raw / (1024.0 * 1024.0),
        [&](std::size_t workers) { return run_once(registry, wire, workers); });
    if (!rows) return 1;
    for (const auto& row : *rows) {
      if (row.workers == 4) best_at_4 = std::max(best_at_4, row.speedup);
      out.row();
      out.det("level", registry.level(static_cast<std::size_t>(level)).label);
      out.det("workers", row.workers);
      out.det("blocks", blocks);
      out.det("ratio", static_cast<double>(wire.size()) / raw, 4);
      strato::bench::write_timing(out, row);
    }
  }
  return strato::bench::floor_status("decode_scaling", best_at_4,
                                     out.write(argc, argv));
}
