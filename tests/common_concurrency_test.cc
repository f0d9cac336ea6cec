// SpscRing, ThreadPool and BufferPool behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/buffer_pool.h"
#include "common/spsc_ring.h"
#include "common/thread_pool.h"

namespace strato::common {
namespace {

TEST(SpscRing, FifoOrder) {
  SpscRing<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(SpscRing, TryPushRespectsCapacity) {
  SpscRing<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.fill(), 1.0);
}

TEST(SpscRing, CloseDrainsThenEnds) {
  SpscRing<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // closed
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed
}

TEST(SpscRing, BlockingHandoffAcrossThreads) {
  SpscRing<int> q(4);
  constexpr int kN = 10000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  long long sum = 0;
  int count = 0;
  while (auto v = q.pop()) {
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kN);
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(SpscRing, TryPopNonBlocking) {
  SpscRing<int> q(4);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(9);
  EXPECT_EQ(q.try_pop().value(), 9);
}

TEST(SpscRing, ZeroCapacityCoercedToOne) {
  SpscRing<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
}

TEST(ThreadPool, ExecutesAllJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&] { counter.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  // post() returns nothing: a job hands its result back through its
  // capture, and shutdown()'s join makes the write visible here.
  ThreadPool pool(2);
  int answer = 0;
  std::string word;
  pool.post([&answer] { answer = 6 * 7; });
  pool.post([&word] { word = "ok"; });
  pool.shutdown();
  EXPECT_EQ(answer, 42);
  EXPECT_EQ(word, "ok");
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.post([&] { done.fetch_add(1); });
    }
  }
  // Destruction drains the queue: every accepted job ran.
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, ShutdownDrainsQueuedJobs) {
  std::atomic<int> done{0};
  ThreadPool pool(1);
  // The first job parks the single worker so the rest provably sit in the
  // queue when shutdown() is called.
  std::latch release(1);
  pool.post([&release] { release.wait(); });
  for (int i = 0; i < 50; ++i) {
    pool.post([&] { done.fetch_add(1); });
  }
  release.count_down();
  pool.shutdown();
  EXPECT_EQ(done.load(), 50);
  // Idempotent.
  pool.shutdown();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, PostAfterShutdownThrowsRepeatablyAndKeepsResults) {
  ThreadPool pool(2);
  int before = 0;
  pool.post([&before] { before = 41; });
  pool.shutdown();
  // Rejection is stable (no partial enqueue, no state corruption), a
  // rejected job never runs, and work accepted before shutdown still
  // delivered its result.
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(pool.post([&before] { before = -1; }), std::runtime_error);
  }
  EXPECT_EQ(before, 41);
}

TEST(ThreadPool, ZeroThreadsCoercedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.post([&ran] { ran.store(1); });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);
}

// The pool captures no errors: a job that throws ends the process, as on
// a plain std::thread. Block jobs cannot throw into it, because
// compress::detail::ReorderWindow publishes their exceptions in its cells
// (ParallelBlockPipeline.WorkerExceptionPropagatesToSubmitter).
TEST(ThreadPoolDeathTest, ThrowingJobTerminates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.post([] { throw std::runtime_error("boom"); });
        pool.shutdown();
      },
      "boom");
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, ExhaustionDropsBeyondBound) {
  // A pool bounded at 2 free buffers: the free list never grows past the
  // bound, every release beyond it is dropped (freed), and the counters
  // say so exactly.
  BufferPool pool(2);
  std::vector<Bytes> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire(1024));
  for (auto& b : held) pool.release(std::move(b));
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 5u);
  EXPECT_EQ(s.reuses, 0u);  // pool was empty: all 5 were fresh
  EXPECT_EQ(s.free_buffers, 2u);
  EXPECT_EQ(s.drops, 3u);
}

TEST(BufferPool, ReuseAfterRelease) {
  BufferPool pool(4);
  Bytes a = pool.acquire(4096);
  const auto* data = a.data();
  a.resize(100);
  std::fill(a.begin(), a.end(), 0xEE);  // stale contents must not leak out
  pool.release(std::move(a));

  Bytes b = pool.acquire(4096);
  EXPECT_EQ(b.data(), data);  // the same allocation came back
  EXPECT_EQ(b.size(), 0u);    // handed out empty despite stale contents
  EXPECT_GE(b.capacity(), 4096u);
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.reuses, 1u);

  // Release and re-acquire through the RAII lease as well.
  pool.release(std::move(b));
  {
    PoolLease lease(pool, 4096);
    EXPECT_EQ(lease->data(), data);
  }
  EXPECT_EQ(pool.stats().free_buffers, 1u);  // lease returned it
}

TEST(BufferPool, AcquirePrefersAlreadyLargeBuffer) {
  BufferPool pool(4);
  Bytes small = pool.acquire(64);
  Bytes large = pool.acquire(1 << 16);
  const auto* large_data = large.data();
  pool.release(std::move(small));
  pool.release(std::move(large));
  // Asking for a big buffer must pick the big pooled one, not grow the
  // small one.
  Bytes got = pool.acquire(1 << 16);
  EXPECT_EQ(got.data(), large_data);
}

TEST(BufferPool, ConcurrentAcquireReleaseKeepsInvariants) {
  // The pipeline's usage shape: several threads acquiring and releasing
  // concurrently. Correctness here is "no crash/race (TSan) and counters
  // consistent", not any particular interleaving.
  BufferPool pool(8);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kIters; ++i) {
        Bytes buf = pool.acquire(512 + (i % 7) * 1024);
        buf.push_back(static_cast<std::uint8_t>(i));
        pool.release(std::move(buf));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.free_buffers, 8u);
  // Everything released came either back to the list or was dropped.
  EXPECT_GE(s.reuses + s.drops + s.free_buffers, 0u);
  EXPECT_GT(s.reuses, 0u);  // steady state must actually recycle
}

}  // namespace
}  // namespace strato::common
