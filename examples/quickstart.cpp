// Quickstart: adaptive compression between an application and a
// bandwidth-limited sink, in ~60 lines.
//
// The application writes a compressible stream through a
// CompressingWriter whose level is chosen by the paper's rate-based
// AdaptivePolicy (Algorithm 1). The sink is an in-process pipe throttled
// to 12 MB/s — the "shared cloud link". A reader thread decompresses and
// verifies. No training phase, no CPU or bandwidth metrics: the policy
// only ever sees the application data rate.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <thread>

#include "common/checksum.h"
#include "core/policy.h"
#include "core/stream.h"
#include "core/throttled_pipe.h"
#include "corpus/generator.h"

using namespace strato;

int main() {
  constexpr std::size_t kTotal = 96 << 20;  // 96 MB demo stream
  const auto& registry = compress::CodecRegistry::standard();

  // A 12 MB/s link, like a congested share of a 1 GBit/s NIC.
  auto link = std::make_shared<core::LinkShare>(12e6);
  core::ThrottledPipe pipe(link);

  // Receiver: reassemble, decompress, checksum.
  std::uint64_t received_digest = 0;
  std::thread receiver([&] {
    core::DecompressingReader reader(registry);
    common::Xxh64State hash;
    for (;;) {
      const auto chunk = pipe.read(64 * 1024);
      if (chunk.empty()) break;
      reader.feed(chunk);
      while (auto block = reader.next_block_view()) hash.update(block->data);
    }
    received_digest = hash.digest();
  });

  // Sender: the paper's DYNAMIC policy, t = 250 ms at demo scale.
  core::AdaptiveConfig cfg;
  cfg.num_levels = static_cast<int>(registry.level_count());
  cfg.alpha = 0.2;
  core::AdaptivePolicy policy(cfg, common::SimTime::ms(250));
  policy.set_trace([](common::SimTime now, double rate,
                      const core::Decision& d) {
    std::printf("t=%5.1fs  app rate %6.1f MB/s  -> level %d%s\n",
                now.to_seconds(), rate / 1e6, d.level,
                d.probed ? " (probe)" : d.reverted ? " (revert)" : "");
  });

  common::SteadyClock clock;
  core::CompressingWriter writer(pipe, registry, policy, clock);

  auto gen = corpus::make_generator(corpus::Compressibility::kHigh, 1);
  common::Xxh64State sent_hash;
  common::Bytes buf(256 * 1024);
  const auto t0 = clock.now();
  for (std::size_t sent = 0; sent < kTotal; sent += buf.size()) {
    gen->generate(buf);
    sent_hash.update(buf);
    writer.write(buf);
  }
  writer.flush();
  pipe.close();
  receiver.join();
  const double secs = (clock.now() - t0).to_seconds();

  std::printf("\nmoved %zu MB of application data in %.1f s (%.1f MB/s over "
              "a 12 MB/s link)\n",
              kTotal >> 20, secs, static_cast<double>(kTotal) / 1e6 / secs);
  std::printf("wire bytes: %.1f MB (ratio %.2f)\n",
              static_cast<double>(writer.framed_bytes()) / 1e6,
              static_cast<double>(writer.framed_bytes()) /
                  static_cast<double>(writer.raw_bytes()));
  std::printf("data integrity: %s\n",
              sent_hash.digest() == received_digest ? "OK" : "CORRUPTED");
  return sent_hash.digest() == received_digest ? 0 : 1;
}
