// ThrottledPipe / LinkShare: the real-time shared-link stand-in.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "core/throttled_pipe.h"

namespace strato::core {
namespace {

common::Bytes drain(ThrottledPipe& pipe) {
  common::Bytes all;
  for (;;) {
    const auto chunk = pipe.read(64 * 1024);
    if (chunk.empty()) return all;
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
}

TEST(ThrottledPipe, DataIntegrityAcrossThreads) {
  auto link = std::make_shared<LinkShare>(200e6);
  ThrottledPipe pipe(link);
  common::Xoshiro256 rng(1);
  common::Bytes data(2 << 20);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  std::thread writer([&] {
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min<std::size_t>(77777, data.size() - off);
      pipe.write(common::ByteSpan(data.data() + off, n));
      off += n;
    }
    pipe.close();
  });
  const auto received = drain(pipe);
  writer.join();
  EXPECT_EQ(received.size(), data.size());
  EXPECT_EQ(received, data);
}

TEST(ThrottledPipe, ApproximatesConfiguredRate) {
  auto link = std::make_shared<LinkShare>(20e6);  // 20 MB/s
  ThrottledPipe pipe(link);
  const std::size_t total = 4 << 20;  // 4 MB -> ~0.2 s
  std::thread writer([&] {
    common::Bytes chunk(64 * 1024, 0x5A);
    for (std::size_t sent = 0; sent < total; sent += chunk.size()) {
      pipe.write(chunk);
    }
    pipe.close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto received = drain(pipe);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  writer.join();
  EXPECT_EQ(received.size(), total);
  const double rate = static_cast<double>(total) / secs;
  EXPECT_GT(rate, 8e6);   // loose band: scheduling noise on CI boxes
  EXPECT_LT(rate, 80e6);  // but decisively throttled below memcpy speed
}

TEST(ThrottledPipe, LinkShareSplitsBandwidth) {
  constexpr double kRate = 40e6;         // bytes/s, shared by both flows
  constexpr double kBurst = kRate / 20;  // LinkShare's bucket depth
  constexpr std::size_t kTotal = 3 << 20;  // per flow
  auto link = std::make_shared<LinkShare>(kRate);
  ThrottledPipe a(link), b(link);
  auto writer = [](ThrottledPipe& p) {
    common::Bytes chunk(64 * 1024, 1);
    for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
      p.write(chunk);
    }
    p.close();
  };
  // The window opens before any thread starts and closes after all have
  // joined, so it holds every grant of both flows.
  const auto t0 = std::chrono::steady_clock::now();
  std::thread wa(writer, std::ref(a)), wb(writer, std::ref(b));
  std::thread ra([&] { drain(a); });
  drain(b);
  wa.join();
  wb.join();
  ra.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The bucket grants at most its burst plus kRate per second of window:
  // (2 x 3 MiB - 2 MB) / 40 MB/s = 0.107 s. Allow 10 ms of slack.
  const double floor_s = (2.0 * kTotal - kBurst) / kRate;
  EXPECT_GT(secs, floor_s - 0.010);
}

TEST(ThrottledPipe, UnthrottledWhenNoLink) {
  ThrottledPipe pipe(nullptr);
  std::thread writer([&] {
    common::Bytes chunk(1 << 20, 7);
    for (int i = 0; i < 32; ++i) pipe.write(chunk);
    pipe.close();
  });
  const auto received = drain(pipe);
  writer.join();
  EXPECT_EQ(received.size(), 32u << 20);
}

TEST(ThrottledPipe, CloseUnblocksReader) {
  ThrottledPipe pipe(nullptr);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pipe.close();
  });
  EXPECT_TRUE(pipe.read(100).empty());  // blocks until close, then EOF
  closer.join();
}

TEST(ThrottledPipe, WriteAfterCloseIsDropped) {
  ThrottledPipe pipe(nullptr);
  pipe.close();
  pipe.write(common::as_bytes("lost"));  // must not crash or block
  EXPECT_TRUE(pipe.read(100).empty());
}

TEST(ThrottledPipe, BoundedBufferBackpressure) {
  // Tiny capacity: writer cannot run ahead of the reader by more than the
  // buffer size.
  ThrottledPipe pipe(nullptr, /*capacity=*/4096);
  std::atomic<std::size_t> written{0};
  std::thread writer([&] {
    common::Bytes chunk(1024, 2);
    for (int i = 0; i < 64; ++i) {
      pipe.write(chunk);
      written.fetch_add(chunk.size());
    }
    pipe.close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Writer must be stalled well short of the total.
  EXPECT_LE(written.load(), 4096u + 1024u);
  const auto received = drain(pipe);
  writer.join();
  EXPECT_EQ(received.size(), 64u * 1024u);
}

TEST(ThrottledPipe, GrainAboveBurstStillFlowsAtRate) {
  // 200 kB/s gives a 10 kB burst (rate / 20), below the pipe's 16 KiB
  // grain, so every grant is larger than the bucket can hold. The write
  // runs in a child process: a grant that never fits fails this test by
  // timeout instead of hanging the suite.
  constexpr double kRate = 200e3;
  constexpr std::size_t kBytes = 64 * 1024;
  const double nominal_s = static_cast<double>(kBytes) / kRate;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ThrottledPipe pipe(std::make_shared<LinkShare>(kRate));
    pipe.write(common::Bytes(kBytes, 0x5A));
    pipe.close();
    std::_Exit(pipe.read(kBytes).size() == kBytes ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(child, &status, WNOHANG) == 0) {
    if (elapsed() > 2 * nominal_s) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      FAIL() << "64 KiB write at 200 kB/s still blocked after "
             << elapsed() << " s";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double secs = elapsed();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // Only the first burst is free: the rest is paid for at the link rate
  // (0.75 × nominal for three 16 KiB grains), which a grant that skipped
  // its credit (0.46 ×) would undercut.
  EXPECT_GT(secs, 0.6 * nominal_s);
  EXPECT_LT(secs, 2 * nominal_s);
}

TEST(LinkShare, AcquireConsumesCredit) {
  LinkShare link(1e9);
  const auto t0 = std::chrono::steady_clock::now();
  link.acquire(1000);  // trivially available
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 0.05);
  EXPECT_DOUBLE_EQ(link.rate(), 1e9);
}

}  // namespace
}  // namespace strato::core
