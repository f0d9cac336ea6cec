// Parallel-pipeline scaling: compression throughput vs worker count for the
// paper's three corpus compressibilities, plus a serial-vs-parallel wire
// identity check. Emits one JSON object on stdout and mirrors it to the
// file named by argv[1] (the committed BENCH_pipeline.json trajectory,
// gated by scripts/check_bench.sh).
//
// Acceptance floor: on a machine with >= 4 hardware threads the best
// 4-worker row must reach 2.0x its corpus's 1-worker throughput, or the
// bench exits 1 after printing its JSON. The best row is the codec-bound
// one; the fast corpora can be bound by the feeding thread. `corpus_seed`,
// `blocks` and `ratio` are det fields and must reproduce exactly between
// runs; `mib_per_s` is a timing field (bench_json.h).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "compress/framing.h"
#include "compress/pipeline.h"
#include "compress/registry.h"
#include "corpus/generator.h"

namespace {

using strato::bench::JsonWriter;
using strato::common::Bytes;
using strato::compress::CodecRegistry;
using strato::compress::ParallelBlockPipeline;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr int kLevel = 2;  // MEDIUM: enough codec work for scaling to show
constexpr std::uint64_t kCorpusSeed = 1234;
constexpr std::size_t kTotalBytes = 16ull * 1024 * 1024;  // per corpus
constexpr double kSpeedupFloor = 2.0;  // best 4-worker row vs 1 worker

std::vector<Bytes> make_corpus(strato::corpus::Compressibility c,
                               std::size_t total_bytes) {
  auto gen = strato::corpus::make_generator(c, kCorpusSeed);
  std::vector<Bytes> blocks;
  for (std::size_t done = 0; done < total_bytes; done += kBlockSize) {
    blocks.push_back(strato::corpus::take(*gen, kBlockSize));
  }
  return blocks;
}

struct RunResult {
  double secs = -1.0;
  std::size_t wire_bytes = 0;
};

RunResult run_once(const CodecRegistry& registry,
                   const std::vector<Bytes>& blocks, std::size_t workers) {
  RunResult r;
  ParallelBlockPipeline pipeline(
      registry, workers,
      [&](strato::common::ByteSpan frame, std::size_t, int) {
        r.wire_bytes += frame.size();
      });
  const auto start = std::chrono::steady_clock::now();
  for (const auto& b : blocks) pipeline.submit(kLevel, b);
  pipeline.flush();
  const auto end = std::chrono::steady_clock::now();
  if (r.wire_bytes == 0) return r;  // keep the sink observable
  r.secs = std::chrono::duration<double>(end - start).count();
  return r;
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
    const double mib = raw / (1024.0 * 1024.0);
    double base = -1.0;
    for (const std::size_t workers : worker_counts) {
      run_once(registry, blocks, workers);  // warm-up (pools, page faults)
      const RunResult r = run_once(registry, blocks, workers);
      if (workers == 1) base = r.secs;
      if (workers == 4) best_at_4 = std::max(best_at_4, base / r.secs);
      out.row();
      out.det("corpus", strato::corpus::to_string(c));
      out.det("workers", workers);
      out.det("blocks", blocks.size());
      out.det("ratio", static_cast<double>(r.wire_bytes) / raw, 4);
      out.info("seconds", r.secs, 4);
      out.timing("mib_per_s", mib / r.secs, 1);
      out.info("speedup_vs_1", base / r.secs, 2);
    }
  }
  const int rc = out.write(argc, argv);
  if (std::thread::hardware_concurrency() >= 4 && best_at_4 < kSpeedupFloor) {
    std::fprintf(stderr,
                 "pipeline_scaling: best speedup at 4 workers %.2f is below "
                 "the %.1fx floor\n",
                 best_at_4, kSpeedupFloor);
    return 1;
  }
  return rc;
}
