// AsyncTransport: the epoll event loop, async sender/receiver endpoints
// over real loopback sockets, chaos injection at the socket level, wire
// identity against the serial oracle, backpressure and error stickiness.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "compress/codec.h"
#include "compress/framing.h"
#include "compress/registry.h"
#include "core/epoll_loop.h"
#include "core/stream.h"
#include "core/tcp.h"
#include "core/throttled_pipe.h"
#include "core/transport.h"
#include "corpus/generator.h"
#include "metrics/registry.h"
#include "verify/oracle.h"

namespace strato::core {
namespace {

// ---------------------------------------------------------------------------
// EpollLoop

TEST(EpollLoop, DispatchModifyRemove) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EpollLoop loop;
  std::uint32_t seen = 0;
  loop.add(fds[0], EpollLoop::kRead, [&](std::uint32_t ev) { seen = ev; });
  EXPECT_TRUE(loop.watching(fds[0]));
  EXPECT_EQ(loop.size(), 1u);
  EXPECT_EQ(loop.poll(0), 0u);  // nothing readable yet

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(loop.poll(100), 1u);
  EXPECT_NE(seen & EpollLoop::kRead, 0u);
  EXPECT_EQ(loop.poll(0), 1u);  // level-triggered: still ready

  loop.modify(fds[0], 0);  // registered but silent — the pause primitive
  EXPECT_EQ(loop.poll(0), 0u);
  loop.modify(fds[0], EpollLoop::kRead);
  EXPECT_EQ(loop.poll(0), 1u);

  char c;
  ASSERT_EQ(::read(fds[0], &c, 1), 1);
  EXPECT_EQ(loop.poll(0), 0u);  // drained

  loop.remove(fds[0]);
  EXPECT_FALSE(loop.watching(fds[0]));
  EXPECT_THROW(loop.modify(fds[0], EpollLoop::kRead), std::runtime_error);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EpollLoop, DoubleAddThrows) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EpollLoop loop;
  loop.add(fds[0], EpollLoop::kRead, [](std::uint32_t) {});
  EXPECT_THROW(loop.add(fds[0], EpollLoop::kRead, [](std::uint32_t) {}),
               std::runtime_error);
  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EpollLoop, RemoveInsideCallbackDiscardsPendingReadiness) {
  // Both pipes are ready in the same batch; the first callback removes
  // the other fd — its queued readiness must be discarded, not dispatched
  // into a dead registration.
  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  EpollLoop loop;
  int fired_a = 0, fired_b = 0;
  loop.add(a[0], EpollLoop::kRead, [&](std::uint32_t) {
    ++fired_a;
    if (loop.watching(b[0])) loop.remove(b[0]);
  });
  loop.add(b[0], EpollLoop::kRead, [&](std::uint32_t) {
    ++fired_b;
    if (loop.watching(a[0])) loop.remove(a[0]);
  });
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "x", 1), 1);
  loop.poll(100);
  EXPECT_EQ(fired_a + fired_b, 1);  // exactly one ran; the other was culled
  EXPECT_EQ(loop.size(), 1u);      // the survivor is still registered
  if (loop.watching(a[0])) loop.remove(a[0]);
  if (loop.watching(b[0])) loop.remove(b[0]);
  EXPECT_EQ(loop.size(), 0u);
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
  ::close(b[1]);
}

TEST(EpollLoop, RunUntilStopsOnPredicate) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EpollLoop loop;
  int fires = 0;
  loop.add(fds[0], EpollLoop::kRead, [&](std::uint32_t) { ++fires; });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run_until([&] { return fires >= 3; }, 1);  // level-triggered re-fires
  EXPECT_GE(fires, 3);
  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// AsyncSender / AsyncReceiver helpers

struct LoopbackPair {
  TcpListener listener;
  TcpConnection client;
  TcpConnection server;
  LoopbackPair()
      : client(TcpConnection::connect("127.0.0.1", listener.port())),
        server(listener.accept()) {}
};

struct Collected {
  std::vector<common::Bytes> blocks;
  std::vector<compress::FrameHeader> headers;
};

AsyncReceiver::BlockSink collect_into(Collected& out) {
  return [&out](common::ByteSpan block, const compress::FrameHeader& hdr) {
    out.blocks.emplace_back(block.begin(), block.end());
    out.headers.push_back(hdr);
  };
}

/// A counter of the transport's registry.
std::uint64_t count(AsyncTransport& transport, const char* name) {
  return transport.metrics().counter(name).value();
}

std::vector<common::Bytes> make_payloads(std::size_t count, std::size_t size,
                                         std::uint64_t seed) {
  auto gen = corpus::make_generator(corpus::Compressibility::kModerate, seed);
  std::vector<common::Bytes> payloads;
  payloads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    payloads.push_back(corpus::take(*gen, size));
  }
  return payloads;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(AsyncTransport, RoundTripAllLevelsIncludingClamp) {
  const auto& registry = compress::CodecRegistry::standard();
  AsyncTransport transport(registry);
  LoopbackPair pair;

  Collected got;
  transport.add_receiver(std::move(pair.server), {}, collect_into(got));
  AsyncSender& tx = transport.add_sender(std::move(pair.client), {});

  const auto payloads =
      make_payloads(registry.level_count() + 1, 20000, 101);
  for (std::size_t i = 0; i < registry.level_count(); ++i) {
    tx.send(static_cast<int>(i), payloads[i]);
  }
  tx.send(99, payloads.back());  // clamped to the top rung
  tx.finish();
  EXPECT_TRUE(tx.drained());
  transport.run_receivers();

  const AsyncReceiver& rx = transport.receiver(0);
  EXPECT_TRUE(rx.clean_eof());
  ASSERT_EQ(got.blocks.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got.blocks[i], payloads[i]) << "block " << i;
  }
  for (std::size_t i = 0; i < registry.level_count(); ++i) {
    EXPECT_EQ(got.headers[i].level, i);
  }
  EXPECT_EQ(got.headers.back().level, registry.level_count() - 1);
  EXPECT_EQ(count(transport, "tx.frames"), payloads.size());
  EXPECT_EQ(count(transport, "rx.blocks"), payloads.size());
  EXPECT_EQ(count(transport, "tx.wire_bytes"),
            count(transport, "rx.wire_bytes"));
}

TEST(AsyncTransport, WireIdenticalToSerialOracle) {
  // The acceptance contract: whatever the worker count, the bytes on the
  // wire are exactly the serial reference encoder's output.
  const auto& registry = compress::CodecRegistry::standard();
  const auto payloads = make_payloads(24, 16000, 202);
  std::vector<int> levels;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    levels.push_back(static_cast<int>(i % registry.level_count()));
  }
  const verify::Oracle oracle(registry);
  const common::Bytes reference = oracle.serial_wire(payloads, levels);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AsyncTransport transport(registry);
    LoopbackPair pair;

    common::Bytes wire;
    AsyncReceiver::Config rx_cfg;
    rx_cfg.wire_tap = [&wire](common::ByteSpan chunk) {
      wire.insert(wire.end(), chunk.begin(), chunk.end());
    };
    Collected got;
    transport.add_receiver(std::move(pair.server), rx_cfg,
                           collect_into(got));
    AsyncSender::Config tx_cfg;
    tx_cfg.workers = workers;
    AsyncSender& tx = transport.add_sender(std::move(pair.client), tx_cfg);

    for (std::size_t i = 0; i < payloads.size(); ++i) {
      tx.send(levels[i], payloads[i]);
    }
    tx.finish();
    transport.run_receivers();

    EXPECT_TRUE(transport.receiver(0).clean_eof());
    EXPECT_EQ(wire, reference);
    ASSERT_EQ(got.blocks.size(), payloads.size());
    EXPECT_EQ(got.blocks, payloads);
  }
}

TEST(AsyncTransport, ManyConnectionsOneLoop) {
  const auto& registry = compress::CodecRegistry::standard();
  constexpr std::size_t kConns = 6;
  constexpr std::size_t kBlocksPer = 8;
  AsyncTransport transport(registry);

  std::vector<LoopbackPair> pairs(kConns);
  std::vector<Collected> got(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    transport.add_receiver(std::move(pairs[c].server), {},
                           collect_into(got[c]));
  }
  std::vector<std::vector<common::Bytes>> sent(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    transport.add_sender(std::move(pairs[c].client), {});
    sent[c] = make_payloads(kBlocksPer, 12000, 300 + c);
  }
  // Interleave: one block per connection per round.
  for (std::size_t b = 0; b < kBlocksPer; ++b) {
    for (std::size_t c = 0; c < kConns; ++c) {
      transport.sender(c).send(static_cast<int>(c % 4), sent[c][b]);
    }
  }
  for (std::size_t c = 0; c < kConns; ++c) transport.sender(c).finish();
  transport.run_receivers();

  for (std::size_t c = 0; c < kConns; ++c) {
    SCOPED_TRACE("conn=" + std::to_string(c));
    EXPECT_TRUE(transport.receiver(c).clean_eof());
    EXPECT_EQ(got[c].blocks, sent[c]);
  }
}

// ---------------------------------------------------------------------------
// Chaos

TEST(AsyncTransport, StallChaosDelaysButPreservesWire) {
  const auto& registry = compress::CodecRegistry::standard();
  const auto payloads = make_payloads(12, 16000, 404);
  std::vector<int> levels(payloads.size(), 1);
  const verify::Oracle oracle(registry);
  const common::Bytes reference = oracle.serial_wire(payloads, levels);

  std::vector<common::ChaosEvent> events;
  for (std::uint64_t at = 1000; at < reference.size(); at += 20000) {
    common::ChaosEvent ev;
    ev.kind = common::ChaosKind::kStall;
    ev.at = at;
    ev.stall_ns = 2'000'000;  // 2 ms
    events.push_back(ev);
  }

  AsyncTransport transport(registry);
  LoopbackPair pair;
  common::Bytes wire;
  AsyncReceiver::Config rx_cfg;
  rx_cfg.wire_tap = [&wire](common::ByteSpan chunk) {
    wire.insert(wire.end(), chunk.begin(), chunk.end());
  };
  Collected got;
  transport.add_receiver(std::move(pair.server), rx_cfg, collect_into(got));
  AsyncSender::Config tx_cfg;
  tx_cfg.chaos = common::ChaosSchedule::scripted(events);
  AsyncSender& tx = transport.add_sender(std::move(pair.client), tx_cfg);

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    tx.send(levels[i], payloads[i]);
  }
  tx.finish();
  transport.run_receivers();

  EXPECT_GT(count(transport, "tx.chaos_stalls"), 0u);
  EXPECT_TRUE(transport.receiver(0).clean_eof());
  EXPECT_EQ(wire, reference);  // stalls delay, never mutate
  EXPECT_EQ(got.blocks, payloads);
}

TEST(AsyncTransport, CorruptChaosSurfacesSerialEquivalentError) {
  // Flip one byte inside frame k's payload: the receiver must deliver
  // exactly k good blocks and then the sticky CodecError — the same
  // observable as the serial FrameAssembler.
  const auto& registry = compress::CodecRegistry::standard();
  const auto payloads = make_payloads(6, 16000, 505);
  const std::vector<int> levels(payloads.size(), 2);
  const verify::Oracle oracle(registry);
  const common::Bytes reference = oracle.serial_wire(payloads, levels);

  // Locate frame boundaries on the reference wire.
  std::vector<std::size_t> frame_starts;
  std::size_t off = 0;
  while (off < reference.size()) {
    frame_starts.push_back(off);
    const auto hdr = compress::parse_header(
        common::ByteSpan(reference).subspan(off));
    off += compress::kFrameHeaderSize + hdr.comp_size;
  }
  ASSERT_EQ(frame_starts.size(), payloads.size());
  constexpr std::size_t kVictim = 3;

  common::ChaosEvent ev;
  ev.kind = common::ChaosKind::kCorrupt;
  ev.at = frame_starts[kVictim] + compress::kFrameHeaderSize + 7;
  ev.xor_mask = 0x5A;

  AsyncTransport transport(registry);
  LoopbackPair pair;
  Collected got;
  transport.add_receiver(std::move(pair.server), {}, collect_into(got));
  AsyncSender::Config tx_cfg;
  tx_cfg.chaos = common::ChaosSchedule::scripted({ev});
  AsyncSender& tx = transport.add_sender(std::move(pair.client), tx_cfg);

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    tx.send(levels[i], payloads[i]);
  }
  tx.finish();
  transport.run_receivers();

  const AsyncReceiver& rx = transport.receiver(0);
  EXPECT_TRUE(rx.done());
  EXPECT_FALSE(rx.clean_eof());
  ASSERT_NE(rx.error(), nullptr);
  EXPECT_THROW(rx.check(), compress::CodecError);
  EXPECT_EQ(count(transport, "rx.blocks"), kVictim);  // serial position
  ASSERT_EQ(got.blocks.size(), kVictim);
  for (std::size_t i = 0; i < kVictim; ++i) {
    EXPECT_EQ(got.blocks[i], payloads[i]);
  }
}

TEST(AsyncTransport, DropChaosNeverPassesForCleanEof) {
  const auto& registry = compress::CodecRegistry::standard();
  const auto payloads = make_payloads(8, 16000, 606);

  common::ChaosEvent ev;
  ev.kind = common::ChaosKind::kDrop;
  ev.at = 40000;
  ev.span = 13;

  AsyncTransport transport(registry);
  LoopbackPair pair;
  Collected got;
  transport.add_receiver(std::move(pair.server), {}, collect_into(got));
  AsyncSender::Config tx_cfg;
  tx_cfg.chaos = common::ChaosSchedule::scripted({ev});
  AsyncSender& tx = transport.add_sender(std::move(pair.client), tx_cfg);

  for (const auto& p : payloads) tx.send(1, p);
  tx.finish();
  transport.run_receivers();

  const AsyncReceiver& rx = transport.receiver(0);
  EXPECT_TRUE(rx.done());
  // A 13-byte hole must be detected: either a CodecError once the
  // stream desynchronizes, or a partial frame pending at EOF.
  EXPECT_FALSE(rx.clean_eof());
}

/// The frames of a serial wire, in order: the chunks the sender's frame
/// sink walks through its chaos cursor.
std::vector<common::ByteSpan> split_frames(const common::Bytes& wire) {
  std::vector<common::ByteSpan> frames;
  std::size_t off = 0;
  while (off < wire.size()) {
    const auto hdr =
        compress::parse_header(common::ByteSpan(wire).subspan(off));
    const std::size_t size = compress::kFrameHeaderSize + hdr.comp_size;
    frames.push_back(common::ByteSpan(wire).subspan(off, size));
    off += size;
  }
  return frames;
}

/// What a ThrottledPipe with no link delivers for `wire` written frame by
/// frame under `chaos`.
common::Bytes pipe_received(const common::Bytes& wire,
                            const common::ChaosSchedule& chaos) {
  ThrottledPipe pipe(nullptr, wire.size() + 1);  // writes never block
  pipe.set_chaos(chaos);
  for (const common::ByteSpan frame : split_frames(wire)) pipe.write(frame);
  pipe.close();
  common::Bytes out;
  for (common::Bytes chunk = pipe.read(64 * 1024); !chunk.empty();
       chunk = pipe.read(64 * 1024)) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

TEST(AsyncTransport, ChaosMatchesThrottledPipe) {
  // Both byte-stream chaos consumers walk the same ChaosWalker, so for any
  // schedule the receiver must see exactly the bytes the pipe delivers —
  // drops, corruptions and all. Only stalls differ (flush deadline vs
  // sleep), and they never change bytes.
  const auto& registry = compress::CodecRegistry::standard();
  const auto payloads = make_payloads(10, 16000, 707);
  std::vector<int> levels;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    levels.push_back(static_cast<int>(i % registry.level_count()));
  }
  const verify::Oracle oracle(registry);
  const common::Bytes reference = oracle.serial_wire(payloads, levels);
  const std::vector<common::ByteSpan> frames = split_frames(reference);
  ASSERT_EQ(frames.size(), payloads.size());
  const std::size_t second = frames[0].size();  // offset of frame 1

  auto event = [](common::ChaosKind kind, std::uint64_t at) {
    common::ChaosEvent ev;
    ev.kind = kind;
    ev.at = at;
    ev.stall_ns = 200'000;  // 0.2 ms
    return ev;
  };
  std::vector<common::ChaosEvent> scripted = {
      event(common::ChaosKind::kStall, 0),
      event(common::ChaosKind::kCorrupt, 5),
      event(common::ChaosKind::kStall, second - 3),
      event(common::ChaosKind::kDrop, second - 3),  // runs into frame 1
      event(common::ChaosKind::kCorrupt, second + 40),
      event(common::ChaosKind::kStall, reference.size() / 2),
      event(common::ChaosKind::kCorrupt, reference.size() / 2),
      event(common::ChaosKind::kDrop, reference.size() - 20),
  };
  scripted[1].xor_mask = 0;  // coerced to 0xFF
  scripted[3].span = 16;     // clamped at the end of frame 0
  scripted[7].span = 64;     // clamped at the end of the stream
  common::ChaosSchedule::RandomSpec spec;
  spec.range = reference.size();
  spec.stalls = 3;
  spec.drops = 4;
  spec.corruptions = 4;
  spec.mean_stall_ns = 200'000;

  const std::pair<const char*, common::ChaosSchedule> schedules[] = {
      {"scripted", common::ChaosSchedule::scripted(scripted)},
      {"random", common::ChaosSchedule::random(spec, 7)},
  };
  for (const auto& [name, chaos] : schedules) {
    const common::Bytes expected = pipe_received(reference, chaos);
    EXPECT_NE(expected, reference) << name;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(std::string(name) + " workers=" + std::to_string(workers));
      AsyncTransport transport(registry);
      LoopbackPair pair;
      common::Bytes wire;
      AsyncReceiver::Config rx_cfg;
      rx_cfg.wire_tap = [&wire](common::ByteSpan chunk) {
        wire.insert(wire.end(), chunk.begin(), chunk.end());
      };
      transport.add_receiver(std::move(pair.server), rx_cfg, {});
      AsyncSender::Config tx_cfg;
      tx_cfg.workers = workers;
      tx_cfg.chaos = chaos;
      AsyncSender& tx = transport.add_sender(std::move(pair.client), tx_cfg);
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        tx.send(levels[i], payloads[i]);
      }
      tx.finish();
      transport.run_receivers();

      EXPECT_GT(count(transport, "tx.chaos_stalls"), 0u);
      EXPECT_FALSE(transport.receiver(0).clean_eof());
      EXPECT_EQ(wire, expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(AsyncTransport, SenderWatermarkBackpressureEngages) {
  const auto& registry = compress::CodecRegistry::standard();
  AsyncTransport transport(registry);
  LoopbackPair pair;

  // A tiny send buffer forces EAGAIN so the user-space queue actually
  // grows past the watermark instead of draining into the kernel. The
  // receive side keeps its default buffer: shrinking it too would clamp
  // the TCP window and stall the whole drain on delayed ACKs.
  const int small = 8 * 1024;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small),
            0);

  common::Xxh64State rx_hash;
  std::uint64_t rx_bytes = 0;
  transport.add_receiver(
      std::move(pair.server), {},
      [&](common::ByteSpan block, const compress::FrameHeader&) {
        rx_hash.update(block);
        rx_bytes += block.size();
      });

  AsyncSender::Config tx_cfg;
  tx_cfg.high_watermark = 64 * 1024;
  tx_cfg.low_watermark = 16 * 1024;
  AsyncSender& tx = transport.add_sender(std::move(pair.client), tx_cfg);

  constexpr std::size_t kBlocks = 16;
  auto gen = corpus::make_generator(corpus::Compressibility::kLow, 707);
  common::Xxh64State tx_hash;
  common::Bytes block(128 * 1024);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    gen->generate(block);
    tx_hash.update(block);
    tx.send(0, block);  // stored: maximal wire pressure
  }
  tx.finish();
  transport.run_receivers();

  EXPECT_GT(tx.backpressure_events(), 0u);
  EXPECT_TRUE(transport.receiver(0).clean_eof());
  EXPECT_EQ(rx_bytes, kBlocks * block.size());
  EXPECT_EQ(rx_hash.digest(), tx_hash.digest());
}

TEST(AsyncTransport, QueuedBytesGaugeSumsSenders) {
  // Every sender on a registry moves the one tx.queued_bytes gauge, so it
  // must read as their sum, not as whichever sender wrote last.
  const auto& registry = compress::CodecRegistry::standard();
  metrics::MetricRegistry reg;
  AsyncTransport transport(registry, &reg);
  LoopbackPair pairs[2];
  AsyncSender* tx[2] = {};
  const int small = 8 * 1024;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(::setsockopt(pairs[i].client.fd(), SOL_SOCKET, SO_SNDBUF,
                           &small, sizeof small),
              0);
    transport.add_receiver(std::move(pairs[i].server), {}, {});
    tx[i] = &transport.add_sender(std::move(pairs[i].client), {});
  }

  // Nothing polls the loop while sending: the receivers read nothing, the
  // kernel buffers fill, and each queue grows past the low watermark
  // while staying under the high one, so send() never drains it.
  const AsyncSender::Config defaults;
  auto gen = corpus::make_generator(corpus::Compressibility::kLow, 919);
  common::Bytes block(128 * 1024);
  for (std::size_t b = 0; b < 16; ++b) {
    for (AsyncSender* s : tx) {
      gen->generate(block);
      s->send(0, block);  // stored: the queue holds every payload byte
    }
  }
  for (const AsyncSender* s : tx) {
    ASSERT_GT(s->queued_bytes(), defaults.low_watermark);
    ASSERT_LT(s->queued_bytes(), defaults.high_watermark);
  }
  EXPECT_EQ(reg.gauge("tx.queued_bytes").value(),
            static_cast<std::int64_t>(tx[0]->queued_bytes() +
                                      tx[1]->queued_bytes()));

  for (AsyncSender* s : tx) s->finish();
  transport.run_receivers();
  EXPECT_TRUE(transport.receiver(0).clean_eof());
  EXPECT_TRUE(transport.receiver(1).clean_eof());
  EXPECT_EQ(reg.gauge("tx.queued_bytes").value(), 0);
}

TEST(AsyncTransport, ReceiverPauseHoldsDeliveryUntilResume) {
  const auto& registry = compress::CodecRegistry::standard();
  AsyncTransport transport(registry);
  LoopbackPair pair;

  Collected got;
  AsyncReceiver& rx =
      transport.add_receiver(std::move(pair.server), {}, collect_into(got));
  AsyncSender& tx = transport.add_sender(std::move(pair.client), {});

  rx.pause();
  EXPECT_TRUE(rx.paused());
  const auto payloads = make_payloads(3, 8000, 808);
  for (const auto& p : payloads) tx.send(2, p);  // compressed: fits kernel buf
  tx.finish();

  for (int i = 0; i < 20; ++i) transport.poll(1);
  EXPECT_EQ(got.blocks.size(), 0u);  // paused = nothing read, nothing decoded
  EXPECT_EQ(count(transport, "rx.wire_bytes"), 0u);

  rx.resume();
  transport.run_receivers();
  EXPECT_TRUE(rx.clean_eof());
  EXPECT_EQ(got.blocks, payloads);
}

// ---------------------------------------------------------------------------
// Error propagation

TEST(AsyncTransport, PeerResetIsStickyOnSender) {
  const auto& registry = compress::CodecRegistry::standard();
  AsyncTransport transport(registry);
  LoopbackPair pair;
  {
    TcpConnection victim = std::move(pair.server);
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ASSERT_EQ(::setsockopt(victim.fd(), SOL_SOCKET, SO_LINGER, &lg,
                           sizeof lg),
              0);
  }  // closed with RST

  AsyncSender& tx = transport.add_sender(std::move(pair.client), {});
  common::Bytes block(64 * 1024, 0x42);
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) tx.send(0, block);
        tx.finish();
      },
      std::runtime_error);
  // Sticky: the connection stays broken.
  EXPECT_THROW(tx.send(0, block), std::runtime_error);
  EXPECT_THROW(tx.finish(), std::runtime_error);
}

TEST(AsyncTransport, PeerAbortMidFrameFailsReceiver) {
  const auto& registry = compress::CodecRegistry::standard();
  AsyncTransport transport(registry);
  LoopbackPair pair;

  Collected got;
  transport.add_receiver(std::move(pair.server), {}, collect_into(got));

  const auto payload = make_payloads(1, 50000, 909)[0];
  const auto frame = compress::encode_block(*registry.level(1).codec, 1,
                                            payload);
  pair.client.write(common::ByteSpan(frame).first(frame.size() / 2));
  {
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_LINGER, &lg,
                           sizeof lg),
              0);
    pair.client.close();  // RST mid-frame
  }

  transport.run_receivers();
  const AsyncReceiver& rx = transport.receiver(0);
  EXPECT_TRUE(rx.done());
  EXPECT_FALSE(rx.clean_eof());
  EXPECT_EQ(got.blocks.size(), 0u);
  // Either the RST surfaced as a socket error, or (if the kernel had
  // buffered the bytes before the RST) the half frame is pending at EOF.
  EXPECT_TRUE(rx.error() != nullptr || rx.pending_at_eof() > 0);
}

TEST(AsyncTransport, SinkExceptionFailsStreamSticky) {
  const auto& registry = compress::CodecRegistry::standard();
  AsyncTransport transport(registry);
  LoopbackPair pair;

  int delivered = 0;
  AsyncReceiver& rx = transport.add_receiver(
      std::move(pair.server), {},
      [&](common::ByteSpan, const compress::FrameHeader&) {
        if (++delivered == 2) throw std::runtime_error("sink rejected block");
      });
  AsyncSender& tx = transport.add_sender(std::move(pair.client), {});

  const auto payloads = make_payloads(4, 8000, 111);
  for (const auto& p : payloads) tx.send(1, p);
  tx.finish();
  transport.run_receivers();

  EXPECT_TRUE(rx.done());
  ASSERT_NE(rx.error(), nullptr);
  EXPECT_THROW(rx.check(), std::runtime_error);
  EXPECT_EQ(delivered, 2);
}

// ---------------------------------------------------------------------------
// Metrics surface

TEST(DecodeFrontEnds, OutOfLadderLevelCountsBlockButNoLevel) {
  // parse_header accepts any level byte (the codec comes from codec_id),
  // so both decode front-ends apply one rule to a level past the ladder:
  // the block and its raw bytes count, a per-level entry does not.
  const auto& registry = compress::CodecRegistry::standard();
  const auto payload = make_payloads(1, 10000, 313)[0];
  common::Bytes frame =
      compress::encode_block(*registry.level(1).codec, 1, payload);
  frame[4] = 200;  // the level byte; the checksum covers only the payload
  const std::vector<std::uint64_t> no_levels(registry.level_count(), 0);

  DecompressingReader reader(registry);
  reader.feed(frame);
  const auto block = reader.next_block_view();
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->header.level, 200);
  EXPECT_EQ(common::Bytes(block->data.begin(), block->data.end()), payload);
  EXPECT_EQ(reader.raw_bytes(), payload.size());
  EXPECT_EQ(reader.blocks_per_level(), no_levels);

  AsyncTransport transport(registry);
  LoopbackPair pair;
  Collected got;
  transport.add_receiver(std::move(pair.server), {}, collect_into(got));
  pair.client.write(frame);
  pair.client.close();
  transport.run_receivers();

  ASSERT_TRUE(transport.receiver(0).clean_eof());
  ASSERT_EQ(got.blocks.size(), 1u);
  EXPECT_EQ(got.headers[0].level, 200);
  EXPECT_EQ(got.blocks[0], payload);
  EXPECT_EQ(transport.metrics().to_json().find("rx.blocks.level200"),
            std::string::npos);
  EXPECT_EQ(count(transport, "rx.blocks"), 1u);
  EXPECT_EQ(count(transport, "rx.raw_bytes"), payload.size());
  for (std::size_t l = 0; l < registry.level_count(); ++l) {
    const std::string name = "rx.blocks.level" + std::to_string(l);
    EXPECT_EQ(count(transport, name.c_str()), 0u) << name;
  }
}

TEST(AsyncTransport, MetricsCoverBothEndpoints) {
  const auto& registry = compress::CodecRegistry::standard();
  metrics::MetricRegistry reg;
  AsyncTransport transport(registry, &reg);
  LoopbackPair pair;

  Collected got;
  transport.add_receiver(std::move(pair.server), {}, collect_into(got));
  AsyncSender& tx = transport.add_sender(std::move(pair.client), {});

  const auto payloads = make_payloads(10, 12000, 222);
  for (const auto& p : payloads) tx.send(2, p);
  tx.finish();
  transport.run_receivers();
  ASSERT_TRUE(transport.receiver(0).clean_eof());

  EXPECT_EQ(reg.counter("tx.frames").value(), payloads.size());
  EXPECT_EQ(reg.counter("rx.blocks").value(), payloads.size());
  EXPECT_EQ(reg.counter("tx.blocks.level2").value(), payloads.size());
  EXPECT_EQ(reg.counter("rx.blocks.level2").value(), payloads.size());
  EXPECT_EQ(reg.counter("tx.wire_bytes").value(),
            reg.counter("rx.wire_bytes").value());
  EXPECT_GT(reg.counter("tx.sendmsg_calls").value(), 0u);
  EXPECT_EQ(reg.counter("rx.eofs").value(), 1u);
  EXPECT_EQ(reg.counter("rx.errors").value(), 0u);
  EXPECT_EQ(reg.gauge("tx.queued_bytes").value(), 0);
  // The snapshot names both directions.
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"tx.wire_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"rx.wire_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace strato::core
