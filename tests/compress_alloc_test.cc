// Heap allocations per threaded block in both block pipelines.
//
// DESIGN.md sections 6 and 9 say steady-state pipeline operation performs
// no per-block allocation. At workers > 1 every block crosses to a
// worker through common::ThreadPool::post; this test pins what that
// hand-off costs by counting every global operator new in the process
// while 2-worker pipelines run stored 8 KiB blocks after a warm-up. A
// hand-off that wrapped each job in a future and a shared task (four
// allocations per block) fails the bound, and so does a BufferPool that
// allocates a FIFO node per 21 releases.
//
// The counting operator new replaces the sanitizers' own, so this test
// lives in a binary of its own: no other test loses ASan's operator new
// checks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/bytes.h"
#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "compress/pipeline.h"
#include "compress/registry.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete reads an inlined free() of
// an operator new result as a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace strato::compress {
namespace {

using common::Bytes;
using common::ByteSpan;

constexpr std::size_t kBlockSize = 8 * 1024;
constexpr std::size_t kWorkers = 2;
constexpr int kWarmupBlocks = 256;
constexpr int kBlocks = 4096;
// What remains is deque nodes: one per 16 jobs in the pool's queue and, on
// decode, the parsed-frame queue's. That reads about 0.0625 per block on
// encode and 0.163 on decode. A BufferPool that parks every release in its
// quarantine FIFO, even at depth 0, adds one node per 21 releases and reads
// 0.158 and 0.210.
constexpr double kMaxEncodeAllocationsPerBlock = 0.1;
constexpr double kMaxDecodeAllocationsPerBlock = 0.18;

Bytes stored_block() {
  Bytes block(kBlockSize);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  return block;
}

TEST(ThreadedHandOff, EncodeAllocatesOnlyPoolQueueNodes) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const Bytes block = stored_block();
  std::uint64_t frames = 0;
  ParallelBlockPipeline pipeline(registry, kWorkers,
                                 [&](ByteSpan, std::size_t, int) { ++frames; });
  ASSERT_EQ(pipeline.worker_count(), kWorkers);
  for (int i = 0; i < kWarmupBlocks; ++i) pipeline.submit(0, block);
  pipeline.flush();

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kBlocks; ++i) pipeline.submit(0, block);
  pipeline.flush();
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_EQ(frames, static_cast<std::uint64_t>(kWarmupBlocks + kBlocks));
  const double per_block = static_cast<double>(allocations) / kBlocks;
  EXPECT_LE(per_block, kMaxEncodeAllocationsPerBlock)
      << allocations << " allocations over " << kBlocks << " blocks";
}

TEST(ThreadedHandOff, DecodeAllocatesOnlyQueueNodes) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const Bytes frame = encode_block(*registry.level(0).codec, 0, stored_block());
  ParallelBlockDecodePipeline pipeline(registry, {.worker_count = kWorkers});
  ASSERT_EQ(pipeline.worker_count(), kWorkers);

  // Feed eight frames per read, as a socket reader would, and drain what
  // they complete; the window still keeps both workers busy.
  Bytes chunk;
  for (int i = 0; i < 8; ++i) {
    chunk.insert(chunk.end(), frame.begin(), frame.end());
  }
  std::uint64_t blocks = 0;
  std::uint64_t short_blocks = 0;
  const auto run = [&](int count) {
    for (int i = 0; i < count / 8; ++i) {
      pipeline.feed(chunk);
      while (const auto block = pipeline.next_block()) {
        ++blocks;
        short_blocks += block->data.size() != kBlockSize ? 1 : 0;
      }
    }
  };
  run(kWarmupBlocks);
  const std::uint64_t before = g_allocations.load();
  run(kBlocks);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_EQ(blocks, static_cast<std::uint64_t>(kWarmupBlocks + kBlocks));
  ASSERT_EQ(short_blocks, 0u);
  const double per_block = static_cast<double>(allocations) / kBlocks;
  EXPECT_LE(per_block, kMaxDecodeAllocationsPerBlock)
      << allocations << " allocations over " << kBlocks << " blocks";
}

}  // namespace
}  // namespace strato::compress
