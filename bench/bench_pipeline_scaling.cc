// Parallel-pipeline scaling: compression throughput vs worker count for the
// paper's three corpus compressibilities, plus a serial-vs-parallel wire
// identity check. Emits one JSON object on stdout and mirrors it to the
// file named by argv[1] (the committed BENCH_pipeline.json trajectory,
// gated by scripts/check_bench.sh).
//
// Each corpus is timed in rounds over every worker count
// (scaling_rounds.h); every run's frames must hash to the 1-worker
// digest. Acceptance floor: on a machine with >= 4 hardware threads the
// best 4-worker row's median must reach 2.0x its corpus's 1-worker
// median, or the bench exits 1 after printing its JSON. The best row is
// the codec-bound one; the fast corpora can be bound by the feeding
// thread. `corpus_seed`, `blocks` and `ratio` are det fields and must
// reproduce exactly between runs; `mib_per_s` is a timing field
// (bench_json.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "compress/framing.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "corpus/generator.h"
#include "scaling_rounds.h"

namespace {

using strato::bench::JsonWriter;
using strato::common::Bytes;
using strato::compress::CodecRegistry;
using strato::compress::ParallelBlockPipeline;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr int kLevel = 2;  // MEDIUM: enough codec work for scaling to show
constexpr std::uint64_t kCorpusSeed = 1234;
constexpr std::size_t kTotalBytes = 16ull * 1024 * 1024;  // per corpus

std::vector<Bytes> make_corpus(strato::corpus::Compressibility c,
                               std::size_t total_bytes) {
  auto gen = strato::corpus::make_generator(c, kCorpusSeed);
  std::vector<Bytes> blocks;
  for (std::size_t done = 0; done < total_bytes; done += kBlockSize) {
    blocks.push_back(strato::corpus::take(*gen, kBlockSize));
  }
  return blocks;
}

/// Encode every block; the digest hashes the frames in delivery order.
strato::bench::RoundResult run_once(const CodecRegistry& registry,
                                    const std::vector<Bytes>& blocks,
                                    std::size_t workers,
                                    std::size_t* wire_bytes) {
  strato::common::Xxh64State hash;
  *wire_bytes = 0;
  ParallelBlockPipeline pipeline(
      registry, workers,
      [&](strato::common::ByteSpan frame, std::size_t, int) {
        hash.update(frame);
        *wire_bytes += frame.size();
      });
  const auto start = std::chrono::steady_clock::now();
  for (const auto& b : blocks) pipeline.submit(kLevel, b);
  pipeline.flush();
  const auto end = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(end - start).count(), hash.digest()};
}

/// Parallel frames must be byte-identical to the serial encoder's at every
/// codec level; any mismatch is a correctness bug, not a perf detail.
bool identity_check(const CodecRegistry& registry) {
  auto gen = strato::corpus::make_generator(
      strato::corpus::Compressibility::kModerate, 99);
  std::vector<Bytes> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(strato::corpus::take(*gen, 32 * 1024));
  }
  for (int level = 1; level < static_cast<int>(registry.level_count());
       ++level) {
    std::vector<Bytes> serial;
    for (const auto& b : blocks) {
      serial.push_back(strato::compress::encode_block(
          *registry.level(static_cast<std::size_t>(level)).codec,
          static_cast<std::uint8_t>(level), b));
    }
    std::vector<Bytes> parallel;
    ParallelBlockPipeline pipeline(
        registry, 4,
        [&](strato::common::ByteSpan frame, std::size_t, int) {
          parallel.emplace_back(frame.begin(), frame.end());
        });
    for (const auto& b : blocks) pipeline.submit(level, b);
    pipeline.flush();
    if (parallel != serial) {
      std::fprintf(stderr, "identity FAILED at level %d\n", level);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CodecRegistry& registry = CodecRegistry::standard();
  if (!identity_check(registry)) return 1;

  const strato::corpus::Compressibility corpora[] = {
      strato::corpus::Compressibility::kHigh,
      strato::corpus::Compressibility::kModerate,
      strato::corpus::Compressibility::kLow};
  const std::size_t worker_counts[] = {1, 2, 4, 8};

  JsonWriter out("pipeline_scaling");
  out.det("block_size", kBlockSize);
  out.det("level", kLevel);
  out.det("corpus_seed", kCorpusSeed);
  out.det("total_mib", kTotalBytes >> 20);
  out.info("hardware_concurrency", std::thread::hardware_concurrency());
  out.det("identity_check", "pass");

  double best_at_4 = 0.0;
  for (const auto c : corpora) {
    const auto blocks = make_corpus(c, kTotalBytes);
    const double raw = static_cast<double>(blocks.size() * kBlockSize);
    std::size_t wire_bytes = 0;  // equal in every run: the digests match
    const auto rows = strato::bench::time_rounds(
        worker_counts, raw / (1024.0 * 1024.0), [&](std::size_t workers) {
          return run_once(registry, blocks, workers, &wire_bytes);
        });
    if (!rows) return 1;
    for (const auto& row : *rows) {
      if (row.workers == 4) best_at_4 = std::max(best_at_4, row.speedup);
      out.row();
      out.det("corpus", strato::corpus::to_string(c));
      out.det("workers", row.workers);
      out.det("blocks", blocks.size());
      out.det("ratio", static_cast<double>(wire_bytes) / raw, 4);
      strato::bench::write_timing(out, row);
    }
  }
  return strato::bench::floor_status("pipeline_scaling", best_at_4,
                                     out.write(argc, argv));
}
