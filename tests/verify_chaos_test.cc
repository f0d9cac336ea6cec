// Chaos hooks: scripted fault schedules on the real-time pipe and the
// virtual-time link, and the safety contract under each fault class —
// stalls never change bytes, drops and corruptions are always detected or
// harmless, link blackouts stretch completion deterministically.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/chaos.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "core/throttled_pipe.h"
#include "corpus/generator.h"
#include "expkit/policies.h"
#include "verify/seed.h"
#include "vsim/topology.h"
#include "vsim/transfer.h"

namespace strato::verify {
namespace {

using common::ChaosEvent;
using common::ChaosKind;
using common::ChaosSchedule;

// --- ChaosSchedule ----------------------------------------------------------

TEST(ChaosSchedule, ScriptedEventsSortedAndReplayable) {
  const ChaosSchedule s = ChaosSchedule::scripted({
      {ChaosKind::kDrop, 500, 8, 0, 0xFF, 0.0},
      {ChaosKind::kCorrupt, 100, 1, 0, 0x01, 0.0},
      {ChaosKind::kStall, 300, 1, 1000, 0xFF, 0.0},
  });
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_EQ(s.events()[0].at, 100u);
  EXPECT_EQ(s.events()[1].at, 300u);
  EXPECT_EQ(s.events()[2].at, 500u);
}

TEST(ChaosSchedule, RandomIsDeterministicInSeed) {
  ChaosSchedule::RandomSpec spec;
  spec.range = 1 << 16;
  spec.stalls = 3;
  spec.drops = 4;
  spec.corruptions = 5;
  const ChaosSchedule a = ChaosSchedule::random(spec, 42);
  const ChaosSchedule b = ChaosSchedule::random(spec, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.events().size(), 12u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << i;
    EXPECT_EQ(a.events()[i].at, b.events()[i].at) << i;
    EXPECT_EQ(a.events()[i].span, b.events()[i].span) << i;
  }
  const ChaosSchedule c = ChaosSchedule::random(spec, 43);
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].at != c.events()[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, BlackoutFactorWindowed) {
  const ChaosSchedule s = ChaosSchedule::scripted({
      {ChaosKind::kBlackout, 1000, 500, 0, 0xFF, 0.25},
      {ChaosKind::kBlackout, 1200, 500, 0, 0xFF, 0.5},
  });
  EXPECT_DOUBLE_EQ(s.capacity_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(s.capacity_factor(999), 1.0);
  EXPECT_DOUBLE_EQ(s.capacity_factor(1000), 0.25);
  EXPECT_DOUBLE_EQ(s.capacity_factor(1300), 0.25 * 0.5);  // overlap
  EXPECT_DOUBLE_EQ(s.capacity_factor(1550), 0.5);
  EXPECT_DOUBLE_EQ(s.capacity_factor(1700), 1.0);
  // Stateless: out-of-order queries give the same answers.
  EXPECT_DOUBLE_EQ(s.capacity_factor(1000), 0.25);
}

// --- ThrottledPipe fault injection ------------------------------------------

common::Bytes drain(core::ThrottledPipe& pipe) {
  common::Bytes all;
  for (;;) {
    const auto chunk = pipe.read(64 * 1024);
    if (chunk.empty()) return all;
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
}

struct FramedStream {
  common::Bytes wire;
  std::set<std::uint64_t> hashes;  // xxh64 of every sent payload
  std::size_t blocks = 0;
};

FramedStream make_stream(std::uint64_t seed, int blocks) {
  const auto& registry = compress::CodecRegistry::standard();
  common::Xoshiro256 rng(seed);
  FramedStream s;
  for (int i = 0; i < blocks; ++i) {
    auto gen = corpus::make_generator(
        static_cast<corpus::Compressibility>(rng.below(3)), rng());
    const auto payload = corpus::take(*gen, 1000 + rng.below(30000));
    const int level = static_cast<int>(rng.below(registry.level_count()));
    const auto frame =
        compress::encode_block(*registry.level(level).codec,
                               static_cast<std::uint8_t>(level), payload);
    s.wire.insert(s.wire.end(), frame.begin(), frame.end());
    s.hashes.insert(common::xxh64(payload));
    ++s.blocks;
  }
  return s;
}

/// Send `wire` through a pipe with `chaos` installed; return the bytes the
/// reader saw.
common::Bytes pump(const common::Bytes& wire, ChaosSchedule chaos) {
  core::ThrottledPipe pipe(nullptr);
  pipe.set_chaos(std::move(chaos));
  std::thread writer([&] {
    std::size_t off = 0;
    common::Xoshiro256 rng(7);  // irregular chunking, like a real app
    while (off < wire.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.below(8192), wire.size() - off);
      pipe.write(common::ByteSpan(wire.data() + off, n));
      off += n;
    }
    pipe.close();
  });
  common::Bytes received = drain(pipe);
  writer.join();
  return received;
}

/// Decode `received`; every block must hash into `sent`. Returns
/// {decoded blocks, clean error seen}.
std::pair<std::size_t, bool> decode_against(const common::Bytes& received,
                                            const FramedStream& sent) {
  compress::FrameAssembler assembler(compress::CodecRegistry::standard());
  assembler.feed(received);
  std::size_t decoded = 0;
  bool error = false;
  try {
    while (auto block = assembler.next_block()) {
      EXPECT_TRUE(sent.hashes.count(common::xxh64(*block)))
          << "decoded a block that was never sent";
      ++decoded;
    }
  } catch (const compress::CodecError&) {
    error = true;
  }
  return {decoded, error};
}

TEST(PipeChaos, StallsNeverChangeBytes) {
  const FramedStream sent = make_stream(1, 6);
  const ChaosSchedule chaos = ChaosSchedule::scripted({
      {ChaosKind::kStall, sent.wire.size() / 3, 1, 2'000'000, 0xFF, 0.0},
      {ChaosKind::kStall, 2 * sent.wire.size() / 3, 1, 2'000'000, 0xFF, 0.0},
  });
  const common::Bytes received = pump(sent.wire, chaos);
  EXPECT_EQ(received, sent.wire);
  const auto [decoded, error] = decode_against(received, sent);
  EXPECT_FALSE(error);
  EXPECT_EQ(decoded, sent.blocks);
}

TEST(PipeChaos, CorruptionDetectedOrHarmless) {
  const std::uint64_t seed = announce_seed(
      "STRATO_CHAOS_SEED", seed_from_env("STRATO_CHAOS_SEED", 0xC4A05));
  int detected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const FramedStream sent = make_stream(seed + trial, 5);
    ChaosSchedule::RandomSpec spec;
    spec.range = sent.wire.size();
    spec.corruptions = 3;
    const common::Bytes received =
        pump(sent.wire, ChaosSchedule::random(spec, seed ^ (trial + 1)));
    EXPECT_EQ(received.size(), sent.wire.size());  // corrupt never resizes
    const auto [decoded, error] = decode_against(received, sent);
    if (error || decoded < sent.blocks) ++detected;
    // decode_against already asserts no foreign block decoded.
  }
  // Flipping bits in framed streams must overwhelmingly be caught. (A
  // flip can be output-neutral — e.g. a match offset into an identical
  // run — so the bound is deliberately loose; the hard property is the
  // never-forge assertion inside decode_against.)
  EXPECT_GE(detected, 10);
}

TEST(PipeChaos, DropsShortenButNeverForge) {
  const std::uint64_t seed = announce_seed(
      "STRATO_CHAOS_SEED", seed_from_env("STRATO_CHAOS_SEED", 0xC4A05));
  const FramedStream sent = make_stream(seed, 6);
  const ChaosSchedule chaos = ChaosSchedule::scripted({
      {ChaosKind::kDrop, sent.wire.size() / 2, 32, 0, 0xFF, 0.0},
  });
  const common::Bytes received = pump(sent.wire, chaos);
  EXPECT_EQ(received.size(), sent.wire.size() - 32);
  const auto [decoded, error] = decode_against(received, sent);
  // The gap desynchronizes framing: either the assembler throws on the
  // first post-gap header, or it starves waiting for bytes that never
  // arrive. Both are clean; forged output is impossible either way.
  EXPECT_LT(decoded, sent.blocks);
  (void)error;
}

TEST(PipeChaos, SameScheduleSameBytes) {
  const FramedStream sent = make_stream(3, 5);
  ChaosSchedule::RandomSpec spec;
  spec.range = sent.wire.size();
  spec.corruptions = 4;
  spec.drops = 2;
  spec.max_drop_span = 16;
  const common::Bytes a = pump(sent.wire, ChaosSchedule::random(spec, 99));
  const common::Bytes b = pump(sent.wire, ChaosSchedule::random(spec, 99));
  EXPECT_EQ(a, b);  // replayable: same seed, same damage, any chunking
  const common::Bytes c = pump(sent.wire, ChaosSchedule::random(spec, 100));
  EXPECT_NE(a, c);
}

// --- Decode-pipeline ladder under chaos -------------------------------------

/// What a receiver observes decoding one damaged wire: the ordered block
/// hashes it delivered, and the error (if any) that ended the stream.
struct DecodeOutcome {
  std::vector<std::uint64_t> block_hashes;
  std::string error;

  bool operator==(const DecodeOutcome& o) const {
    return block_hashes == o.block_hashes && error == o.error;
  }
};

DecodeOutcome decode_serial(const common::Bytes& received) {
  compress::FrameAssembler assembler(compress::CodecRegistry::standard());
  assembler.feed(received);
  DecodeOutcome out;
  try {
    while (auto block = assembler.next_block()) {
      out.block_hashes.push_back(common::xxh64(*block));
    }
  } catch (const compress::CodecError& e) {
    out.error = e.what();
  }
  return out;
}

DecodeOutcome decode_parallel(const common::Bytes& received,
                              std::size_t workers, std::size_t chunk) {
  compress::DecodePipelineConfig cfg;
  cfg.worker_count = workers;
  compress::ParallelBlockDecodePipeline pipeline(
      compress::CodecRegistry::standard(), cfg);
  DecodeOutcome out;
  try {
    std::size_t off = 0;
    while (off < received.size()) {
      const std::size_t n = std::min(chunk, received.size() - off);
      pipeline.feed(common::ByteSpan(received.data() + off, n));
      off += n;
      while (auto block = pipeline.next_block()) {
        out.block_hashes.push_back(common::xxh64(block->data));
      }
    }
  } catch (const compress::CodecError& e) {
    out.error = e.what();
  }
  return out;
}

TEST(DecodeChaos, WorkerLadderMatchesSerialOnDamagedWires) {
  // Truncated, corrupted and stalled wires must produce the same blocks
  // and the same error at every worker count and feed chunking — the
  // receive-side pipeline may never turn damage into divergence. Seeds
  // are replayable via STRATO_CHAOS_SEED.
  const std::uint64_t seed = announce_seed(
      "STRATO_CHAOS_SEED", seed_from_env("STRATO_CHAOS_SEED", 0xDECA1));
  for (int trial = 0; trial < 8; ++trial) {
    const FramedStream sent = make_stream(seed + trial, 4);
    ChaosSchedule::RandomSpec spec;
    spec.range = sent.wire.size();
    spec.corruptions = 2;
    spec.drops = 1;
    spec.max_drop_span = 24;
    spec.stalls = 1;
    const common::Bytes received =
        pump(sent.wire, ChaosSchedule::random(spec, seed ^ (trial + 17)));

    const DecodeOutcome serial = decode_serial(received);
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      for (const std::size_t chunk :
           {std::size_t{17}, std::max<std::size_t>(1, received.size())}) {
        const DecodeOutcome par = decode_parallel(received, workers, chunk);
        EXPECT_TRUE(par == serial)
            << "trial=" << trial << " workers=" << workers
            << " chunk=" << chunk << ": blocks " << par.block_hashes.size()
            << " vs " << serial.block_hashes.size() << ", error \""
            << par.error << "\" vs \"" << serial.error << "\"";
      }
    }
  }
}

TEST(DecodeChaos, TruncatedFrameStarvesEveryWorkerCountAlike) {
  const std::uint64_t seed = announce_seed(
      "STRATO_CHAOS_SEED", seed_from_env("STRATO_CHAOS_SEED", 0xDECA1));
  const FramedStream sent = make_stream(seed, 5);
  common::Bytes truncated = sent.wire;
  truncated.resize(truncated.size() * 3 / 4);  // mid-frame cut
  const DecodeOutcome serial = decode_serial(truncated);
  EXPECT_EQ(serial.error, "");  // starvation, not an error
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const DecodeOutcome par =
        decode_parallel(truncated, workers, truncated.size());
    EXPECT_TRUE(par == serial) << "workers=" << workers;
  }
}

// --- LinkBank blackouts -----------------------------------------------------

TEST(LinkChaos, BlackoutScalesCapacityInsideWindow) {
  vsim::VirtProfile flat;  // deterministic: no fluctuation noise
  flat.net_bytes_s = 100e6;
  flat.net_fluct.sigma = 0.0;
  flat.net_fluct.run_bias_sigma = 0.0;

  const vsim::Topology topo = vsim::Topology::single(flat);
  vsim::LinkBank plain(topo, 5);
  vsim::LinkBank dark(topo, 5);
  dark.set_chaos(0, ChaosSchedule::scripted({
      {ChaosKind::kBlackout, 2'000'000'000ULL, 1'000'000'000ULL, 0, 0xFF, 0.1},
  }));

  // Queries non-decreasing in time, as the link model requires.
  const auto before = common::SimTime::seconds(1.0);
  const auto inside = common::SimTime::seconds(2.5);
  const auto after = common::SimTime::seconds(3.5);
  EXPECT_NEAR(dark.capacity(0, before) / plain.capacity(0, before), 1.0,
              1e-9);
  EXPECT_NEAR(dark.capacity(0, inside) / plain.capacity(0, inside), 0.1,
              1e-9);
  EXPECT_NEAR(dark.capacity(0, after) / plain.capacity(0, after), 1.0, 1e-9);
}

// --- Virtual-time transfer under link chaos ---------------------------------

double run_transfer(const vsim::TransferConfig& cfg, const std::string& name) {
  vsim::TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy(name, exp);
  return exp.run(*policy).completion_s;
}

vsim::TransferConfig chaos_config() {
  vsim::TransferConfig cfg;
  cfg.data = corpus::Compressibility::kModerate;
  cfg.total_bytes = 500'000'000ULL;
  cfg.seed = 11;
  return cfg;
}

TEST(TransferChaos, BlackoutsStretchCompletionDeterministically) {
  const auto base_cfg = chaos_config();
  const double baseline = run_transfer(base_cfg, "NO");

  auto dark_cfg = base_cfg;
  // Two brown-outs to 10% capacity, one second each, early in the run.
  dark_cfg.link_chaos = ChaosSchedule::scripted({
      {ChaosKind::kBlackout, 1'000'000'000ULL, 1'000'000'000ULL, 0, 0xFF, 0.1},
      {ChaosKind::kBlackout, 3'000'000'000ULL, 1'000'000'000ULL, 0, 0xFF, 0.1},
  });
  const double dark = run_transfer(dark_cfg, "NO");
  // Losing ~90% of the link for 2 of ~6 seconds must cost real time, but
  // not more than the 2 chaotic seconds could possibly cost.
  EXPECT_GT(dark, baseline + 1.0);
  EXPECT_LT(dark, baseline + 2.1);

  // Same config, same chaos => identical virtual-time outcome.
  EXPECT_DOUBLE_EQ(dark, run_transfer(dark_cfg, "NO"));
}

TEST(TransferChaos, AdaptivePolicySurvivesBlackouts) {
  auto cfg = chaos_config();
  cfg.link_chaos = ChaosSchedule::scripted({
      {ChaosKind::kBlackout, 500'000'000ULL, 1'500'000'000ULL, 0, 0xFF, 0.15},
  });
  vsim::TransferExperiment exp(cfg);
  const auto policy = expkit::make_policy("DYNAMIC", exp);
  const auto result = exp.run(*policy);
  // The run completes, moves every byte, and only ever picked levels the
  // ladder actually has — the controller never derails under the outage.
  EXPECT_GT(result.completion_s, 0.0);
  EXPECT_EQ(result.raw_bytes, cfg.total_bytes);
  std::uint64_t blocks = 0;
  for (const auto n : result.blocks_per_level) blocks += n;
  EXPECT_EQ(blocks, (cfg.total_bytes + compress::kDefaultBlockSize - 1) /
                        compress::kDefaultBlockSize);
  EXPECT_LE(result.blocks_per_level.size(),
            static_cast<std::size_t>(vsim::CodecModel::kNumLevels));
}

}  // namespace
}  // namespace strato::verify
