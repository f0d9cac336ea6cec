// Loopback chaos soak: many concurrent AsyncTransport connections on one
// event loop, chaos enabled, every stream differentially verified.
//
//   * integrity group: every connection's delivered blocks must be
//     byte-identical (per-block XXH64) to what was submitted, in order;
//   * wire-identity group (every 5th connection): the bytes observed on
//     the wire (via wire_tap) must hash identically to the serial
//     verify::Oracle-style reference encoding of the same payloads —
//     including connections running parallel encode workers;
//   * stall group: scripted kStall chaos delays flushing but must never
//     mutate the stream;
//   * fault group (every 7th connection): scripted kCorrupt/kDrop chaos
//     must be detected — never a clean EOF — and the blocks delivered
//     before the fault must still be the exact sent prefix.
//
// Scale is env-tunable so the same binary is a fast tier-1 test and a
// full acceptance soak:
//
//   export STRATO_TRANSPORT_CONNS=200 STRATO_TRANSPORT_TOTAL_MB=10240
//   ctest -L transport              # hundreds of conns, >= 10 GB aggregate
//
// Defaults keep the tier-1 run in seconds. STRATO_TRANSPORT_SEED replays
// a failing run (announced up front, per repository convention).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/chaos.h"
#include "common/rng.h"
#include "compress/framing.h"
#include "compress/registry.h"
#include "core/transport.h"
#include "corpus/generator.h"
#include "metrics/registry.h"
#include "verify/seed.h"

namespace strato::core {
namespace {

std::size_t env_size(const char* var, std::size_t fallback) {
  return static_cast<std::size_t>(verify::seed_from_env(var, fallback));
}

struct ConnState {
  std::size_t index = 0;
  bool faulty = false;        // kCorrupt/kDrop scripted on this conn
  bool wire_checked = false;  // serial-reference wire digest maintained
  std::size_t workers = 1;

  std::unique_ptr<corpus::Generator> gen;
  common::Bytes block;

  std::vector<std::uint64_t> sent_digests;  // per-block XXH64, in order
  common::Xxh64State ref_wire;              // serial reference encoding
  common::Xxh64State wire;                  // bytes actually on the wire
  std::uint64_t delivered = 0;
  bool prefix_ok = true;
};

TEST(TransportSoak, ChaosLoopbackFleetIsSerialEquivalent) {
  const std::uint64_t seed = verify::announce_seed(
      "STRATO_TRANSPORT_SEED",
      verify::seed_from_env("STRATO_TRANSPORT_SEED", 4242));
  const std::size_t conns = env_size("STRATO_TRANSPORT_CONNS", 12);
  const std::size_t total_mb = env_size("STRATO_TRANSPORT_TOTAL_MB", 24);
  SCOPED_TRACE("STRATO_TRANSPORT_SEED=" + std::to_string(seed) +
               " CONNS=" + std::to_string(conns) +
               " TOTAL_MB=" + std::to_string(total_mb));
  ASSERT_GT(conns, 0u);

  constexpr std::size_t kBlockSize = 64 * 1024;
  const std::size_t total_bytes = total_mb << 20;
  const std::size_t blocks_per_conn =
      std::max<std::size_t>(total_bytes / conns / kBlockSize, 4);

  const auto& registry = compress::CodecRegistry::standard();
  metrics::MetricRegistry metrics_reg;
  AsyncTransport transport(registry, &metrics_reg);

  std::vector<std::unique_ptr<ConnState>> states;
  states.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    auto state = std::make_unique<ConnState>();
    state->index = c;
    state->faulty = (c % 7) == 2;
    // Wire identity needs a byte-exact wire: stalls delay but never
    // mutate, so stall conns stay eligible; fault conns do not.
    state->wire_checked = !state->faulty && (c % 5) == 0;
    state->workers = (c % 11) == 3 ? 2 : 1;
    state->gen = corpus::make_generator(
        static_cast<corpus::Compressibility>(c % 3), seed + c);
    state->block.resize(kBlockSize);
    states.push_back(std::move(state));
  }

  // Endpoints. All pairs share one loop; receivers use the zero-copy
  // recv_span path and mixed decode worker counts.
  for (std::size_t c = 0; c < conns; ++c) {
    ConnState& st = *states[c];
    TcpListener listener;
    auto client = TcpConnection::connect("127.0.0.1", listener.port());
    auto server = listener.accept();

    AsyncReceiver::Config rx_cfg;
    rx_cfg.decode_workers = (c % 13) == 4 ? 2 : 1;
    if (st.wire_checked) {
      rx_cfg.wire_tap = [&st](common::ByteSpan chunk) {
        st.wire.update(chunk);
      };
    }
    transport.add_receiver(
        std::move(server), rx_cfg,
        [&st](common::ByteSpan block, const compress::FrameHeader&) {
          common::Xxh64State h;
          h.update(block);
          if (st.delivered >= st.sent_digests.size() ||
              h.digest() != st.sent_digests[st.delivered]) {
            st.prefix_ok = false;
          }
          ++st.delivered;
        });

    AsyncSender::Config tx_cfg;
    tx_cfg.workers = st.workers;
    if (st.faulty) {
      // Early enough to trigger at every scale: the first stored-level
      // frames alone put > 256 KB on the wire.
      std::vector<common::ChaosEvent> events;
      common::ChaosEvent corrupt;
      corrupt.kind = common::ChaosKind::kCorrupt;
      corrupt.at = 100000 + 17 * c;
      corrupt.xor_mask = static_cast<std::uint8_t>(0x11 + c);
      events.push_back(corrupt);
      common::ChaosEvent drop;
      drop.kind = common::ChaosKind::kDrop;
      drop.at = 200000 + 31 * c;
      drop.span = 11;
      events.push_back(drop);
      tx_cfg.chaos = common::ChaosSchedule::scripted(events);
    } else if ((c % 3) == 1) {
      common::ChaosSchedule::RandomSpec spec;
      spec.range = 1 << 20;
      spec.stalls = 3;
      spec.mean_stall_ns = 500'000;  // ~0.5 ms; delays only
      tx_cfg.chaos = common::ChaosSchedule::random(spec, seed + c);
    }
    transport.add_sender(std::move(client), tx_cfg);
  }

  // Drive: round-robin one block per connection, polling receivers as we
  // go so decode keeps pace with encode on the single loop thread.
  for (std::size_t b = 0; b < blocks_per_conn; ++b) {
    for (std::size_t c = 0; c < conns; ++c) {
      ConnState& st = *states[c];
      st.gen->generate(st.block);
      common::Xxh64State h;
      h.update(st.block);
      st.sent_digests.push_back(h.digest());

      const int level = static_cast<int>((b + c) % registry.level_count());
      if (st.wire_checked) {
        // Serial reference: the exact frame the serial encoder would put
        // on the wire, hashed and discarded (no 10 GB retention).
        const common::Bytes frame = compress::encode_block(
            *registry.level(static_cast<std::size_t>(level)).codec,
            static_cast<std::uint8_t>(level), st.block);
        st.ref_wire.update(frame);
      }
      transport.sender(c).send(level, st.block);
    }
    transport.poll(0);
  }
  for (std::size_t c = 0; c < conns; ++c) transport.sender(c).finish();
  transport.run_receivers();

  // Verdicts.
  for (std::size_t c = 0; c < conns; ++c) {
    const ConnState& st = *states[c];
    const AsyncReceiver& rx = transport.receiver(c);
    SCOPED_TRACE("conn=" + std::to_string(c) +
                 (st.faulty ? " (faulty)" : "") +
                 " workers=" + std::to_string(st.workers));
    ASSERT_TRUE(rx.done());
    EXPECT_TRUE(st.prefix_ok);  // every delivered block matched its sent twin
    if (st.faulty) {
      // Chaos ate or flipped bytes: a clean EOF would mean silent
      // corruption slipped through the checksum net.
      EXPECT_FALSE(rx.clean_eof());
      EXPECT_LT(st.delivered, st.sent_digests.size());
    } else {
      EXPECT_TRUE(rx.clean_eof());
      EXPECT_EQ(st.delivered, st.sent_digests.size());
      if (st.wire_checked) {
        EXPECT_EQ(st.wire.digest(), st.ref_wire.digest())
            << "wire diverged from the serial reference encoding";
      }
    }
  }
  EXPECT_GE(metrics_reg.counter("tx.raw_bytes").value(),
            conns * blocks_per_conn * kBlockSize);

  // The shared metric surface aggregates both directions of every
  // connection; spot-check the invariants that survive chaos.
  EXPECT_EQ(metrics_reg.counter("rx.eofs").value() +
                metrics_reg.counter("rx.errors").value(),
            conns);
  EXPECT_GT(metrics_reg.counter("tx.wire_bytes").value(), 0u);
  EXPECT_GE(metrics_reg.counter("tx.wire_bytes").value(),
            metrics_reg.counter("rx.wire_bytes").value());
}

}  // namespace
}  // namespace strato::core
