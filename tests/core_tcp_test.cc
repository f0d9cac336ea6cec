// Real TCP transport: loopback round trips of the full adaptive pipeline
// over the kernel's TCP stack — the paper's actual channel medium, plus
// the hardening contract: EINTR retry under signal pepper, EAGAIN
// write-all/read-something on O_NONBLOCK fds, ECONNRESET surfacing as an
// exception mid-frame, and SIGPIPE never killing the process.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <thread>

#include "common/checksum.h"
#include "core/policy.h"
#include "core/stream.h"
#include "core/tcp.h"
#include "corpus/generator.h"

namespace strato::core {
namespace {

TEST(Tcp, ListenerPicksEphemeralPort) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(Tcp, BasicByteRoundTrip) {
  TcpListener listener;
  std::thread client([&] {
    auto conn = TcpConnection::connect("127.0.0.1", listener.port());
    conn.write(common::as_bytes("hello over tcp"));
    conn.shutdown_send();
    // Echo path back.
    common::Bytes reply;
    for (;;) {
      const auto chunk = conn.read(1024);
      if (chunk.empty()) break;
      reply.insert(reply.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(common::to_string(reply), "HELLO");
  });

  auto server = listener.accept();
  common::Bytes received;
  for (;;) {
    const auto chunk = server.read(1024);
    if (chunk.empty()) break;
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(common::to_string(received), "hello over tcp");
  server.write(common::as_bytes("HELLO"));
  server.shutdown_send();
  client.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpListener listener;
    dead_port = listener.port();
  }  // closed again
  EXPECT_THROW(TcpConnection::connect("127.0.0.1", dead_port),
               std::runtime_error);
  EXPECT_THROW(TcpConnection::connect("not an ip", 1), std::runtime_error);
}

TEST(Tcp, AdaptivePipelineOverRealSockets) {
  // The paper's setup end to end: sender task -> adaptive compression ->
  // TCP connection -> decompression -> receiver, on the loopback device.
  constexpr std::size_t kTotal = 8 << 20;
  TcpListener listener;

  std::uint64_t sent_digest = 0;
  std::thread sender([&] {
    auto conn = TcpConnection::connect("127.0.0.1", listener.port());
    const auto& registry = compress::CodecRegistry::standard();
    AdaptiveConfig cfg;
    cfg.num_levels = static_cast<int>(registry.level_count());
    AdaptivePolicy policy(cfg, common::SimTime::ms(100));
    common::SteadyClock clock;
    CompressingWriter writer(conn, registry, policy, clock);

    auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 5);
    common::Xxh64State hash;
    common::Bytes chunk(64 * 1024);
    for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
      gen->generate(chunk);
      hash.update(chunk);
      writer.write(chunk);
    }
    writer.flush();
    conn.shutdown_send();
    sent_digest = hash.digest();
    // Loopback is faster than any codec, so staying at level 0 is the
    // *correct* adaptive outcome here; the assertion is about transport
    // integrity, not ratio.
    EXPECT_GE(writer.framed_bytes(), writer.raw_bytes());
    // Drain until peer closes so the socket lingers long enough.
    while (!conn.read(4096).empty()) {
    }
  });

  auto server = listener.accept();
  DecompressingReader reader(compress::CodecRegistry::standard());
  common::Xxh64State hash;
  std::uint64_t received = 0;
  for (;;) {
    const auto chunk = server.read(64 * 1024);
    if (chunk.empty()) break;
    reader.feed(chunk);
    while (auto block = reader.next_block_view()) {
      hash.update(block->data);
      received += block->data.size();
    }
  }
  server.shutdown_send();
  server.close();
  sender.join();
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(hash.digest(), sent_digest);
}

TEST(Tcp, FramedStreamSurvivesSmallSocketReads) {
  // Tiny reads force the FrameAssembler through every partial-header and
  // partial-payload path over a real socket.
  TcpListener listener;
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 9);
  const auto payload = corpus::take(*gen, 100000);

  std::thread sender([&] {
    auto conn = TcpConnection::connect("127.0.0.1", listener.port());
    const auto frame = compress::encode_block(
        *compress::CodecRegistry::standard().level(2).codec, 2, payload);
    conn.write(frame);
    conn.shutdown_send();
  });

  auto server = listener.accept();
  compress::FrameAssembler assembler(compress::CodecRegistry::standard());
  std::optional<common::Bytes> block;
  for (;;) {
    const auto chunk = server.read(97);  // deliberately tiny
    if (chunk.empty()) break;
    assembler.feed(chunk);
    if (auto b = assembler.next_block()) block = std::move(b);
  }
  sender.join();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(*block, payload);
}

// ---------------------------------------------------------------------------
// Hardening regressions

TEST(TcpHardening, ReadWriteSurviveSignalPepper) {
  // A no-op SIGUSR1 handler installed WITHOUT SA_RESTART makes every
  // blocking syscall eligible for EINTR; peppering the transfer thread
  // with signals exercises the retry loops in read()/write().
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  constexpr std::size_t kTotal = 4 << 20;
  TcpListener listener;
  std::atomic<bool> stop{false};

  std::thread client([&] {
    auto conn = TcpConnection::connect("127.0.0.1", listener.port());
    auto gen = corpus::make_generator(corpus::Compressibility::kLow, 11);
    common::Bytes chunk(64 * 1024);
    for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
      gen->generate(chunk);
      conn.write(chunk);
    }
    conn.shutdown_send();
  });
  const pthread_t victim = client.native_handle();

  std::thread pepper([&] {
    while (!stop.load()) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  auto server = listener.accept();
  std::uint64_t received = 0;
  for (;;) {
    const auto chunk = server.read(32 * 1024);
    if (chunk.empty()) break;
    received += chunk.size();
  }
  stop = true;
  client.join();
  pepper.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_EQ(received, kTotal);
}

TEST(TcpHardening, NonblockingFdsKeepBlockingSemantics) {
  // With O_NONBLOCK set on both ends and a payload far beyond the socket
  // buffers, write() must poll()-wait through EAGAIN and still write all;
  // read() must wait for data instead of failing.
  constexpr std::size_t kTotal = 8 << 20;
  TcpListener listener;

  std::uint64_t sent_digest = 0;
  std::thread client([&] {
    auto conn = TcpConnection::connect("127.0.0.1", listener.port());
    conn.set_nonblocking(true);
    auto gen = corpus::make_generator(corpus::Compressibility::kLow, 13);
    common::Xxh64State hash;
    common::Bytes chunk(256 * 1024);
    for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
      gen->generate(chunk);
      hash.update(chunk);
      conn.write(chunk);  // must not drop bytes on EAGAIN
    }
    conn.shutdown_send();
    sent_digest = hash.digest();
  });

  auto server = listener.accept();
  server.set_nonblocking(true);
  common::Xxh64State hash;
  std::uint64_t received = 0;
  for (;;) {
    const auto chunk = server.read(64 * 1024);
    if (chunk.empty()) break;  // orderly EOF, not EAGAIN
    hash.update(chunk);
    received += chunk.size();
  }
  client.join();
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(hash.digest(), sent_digest);
}

TEST(TcpHardening, PeerResetMidFrameThrowsInsteadOfHanging) {
  // The client aborts (SO_LINGER{1,0} => RST on close) halfway through a
  // frame. The server must surface ECONNRESET as std::runtime_error — not
  // EOF (which would silently truncate the stream) and not a hang.
  TcpListener listener;
  const auto& registry = compress::CodecRegistry::standard();
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, 17);
  const auto payload = corpus::take(*gen, 200000);
  const auto frame = compress::encode_block(
      *registry.level(1).codec, 1, payload);

  std::thread client([&] {
    auto conn = TcpConnection::connect("127.0.0.1", listener.port());
    conn.write(common::ByteSpan(frame).first(frame.size() / 2));
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg),
              0);
    conn.close();  // RST
  });

  auto server = listener.accept();
  compress::FrameAssembler assembler(registry);
  EXPECT_THROW(
      {
        for (;;) {
          const auto chunk = server.read(4096);
          if (chunk.empty()) break;
          assembler.feed(chunk);
          while (assembler.next_block()) {
          }
        }
      },
      std::runtime_error);
  client.join();
}

TEST(TcpHardening, WriteToResetPeerThrowsNoSigpipe) {
  // The server accepts and aborts immediately; the client keeps writing.
  // Without MSG_NOSIGNAL the second write would raise SIGPIPE and kill
  // the process — the regression this test pins is "exception, always".
  TcpListener listener;
  auto conn = TcpConnection::connect("127.0.0.1", listener.port());
  {
    auto server = listener.accept();
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ASSERT_EQ(::setsockopt(server.fd(), SOL_SOCKET, SO_LINGER, &lg,
                           sizeof lg),
              0);
  }  // closed with RST

  const common::Bytes junk(64 * 1024, 0xAB);
  EXPECT_THROW(
      {
        // The first writes may land in the kernel buffer before the RST
        // is processed; bounded retries guarantee the error surfaces.
        for (int i = 0; i < 1000; ++i) conn.write(junk);
      },
      std::runtime_error);
}

TEST(TcpHardening, BacklogAbsorbsConnectionBurst) {
  // The soak dials hundreds of connections before the acceptor runs;
  // listen(backlog) must hold a burst without refusing anyone.
  constexpr int kBurst = 16;
  TcpListener listener(0, /*backlog=*/kBurst);
  std::vector<TcpConnection> clients;
  clients.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    clients.push_back(TcpConnection::connect("127.0.0.1", listener.port()));
    clients.back().write(common::as_bytes("x"));
  }
  for (int i = 0; i < kBurst; ++i) {
    auto server = listener.accept();
    EXPECT_EQ(server.read(16).size(), 1u);
  }
}

}  // namespace
}  // namespace strato::core
