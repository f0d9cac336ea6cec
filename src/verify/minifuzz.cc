#include "verify/minifuzz.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/checksum.h"
#include "common/rng.h"
#include "compress/framing.h"
#include "verify/mutator.h"

namespace strato::verify {

namespace {

/// Adversarial payload mix: runs, random noise, self-copies, ramps — the
/// same classes of structure the property tests use, inlined here so the
/// fuzz corpus is independent of the corpus generators.
common::Bytes fuzz_payload(common::Xoshiro256& rng, std::size_t target) {
  common::Bytes data;
  while (data.size() < target) {
    switch (rng.below(6)) {
      case 0:
        data.insert(data.end(), 1 + rng.below(300),
                    static_cast<std::uint8_t>(rng()));
        break;
      case 1: {
        const std::size_t n = 1 + rng.below(200);
        for (std::size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      case 2: {
        if (data.empty()) break;
        const std::size_t start = rng.below(data.size());
        const std::size_t n =
            std::min<std::size_t>(1 + rng.below(400), data.size() - start);
        for (std::size_t i = 0; i < n; ++i) data.push_back(data[start + i]);
        break;
      }
      case 3: {
        const std::size_t n = 1 + rng.below(128);
        for (std::size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<std::uint8_t>(i));
        }
        break;
      }
      case 4: {
        // Small-period run: decodes as overlapped match copies at
        // distances 1..64, copy_match's short-distance hazard class. The
        // resize below truncates the last run at the payload tail, so
        // these copies also routinely end within the final 32 bytes of
        // the exact-size decode scratch.
        const std::size_t period = 1 + rng.below(64);
        for (std::size_t i = 0; i < period; ++i) {
          data.push_back(static_cast<std::uint8_t>(rng()));
        }
        const std::size_t start = data.size() - period;
        const std::size_t n = period + rng.below(300);
        for (std::size_t i = 0; i < n; ++i) data.push_back(data[start + i]);
        break;
      }
      default:
        data.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  data.resize(target);
  return data;
}

/// Order-sensitive digest accumulator (FNV-1a over outcome words).
void fold(std::uint64_t& fp, std::uint64_t word) {
  fp ^= word;
  fp *= 1099511628211ULL;
}

/// Decode a (possibly mutated) wire stream and classify the outcome.
/// `originals` holds the XXH64 of every payload that was legally encoded.
enum class Outcome : std::uint64_t {
  kIntact = 1,     ///< no error; every decoded block was an original
  kRejected = 2,   ///< CodecError — clean rejection
  kCorrupted = 3,  ///< decoded bytes that were never encoded
};

Outcome classify(const compress::CodecRegistry& registry,
                 const common::Bytes& wire,
                 const std::set<std::uint64_t>& originals,
                 std::string& detail) {
  compress::FrameAssembler assembler(registry);
  assembler.feed(wire);
  bool threw = false;
  int decoded = 0;
  try {
    // A mutated stream holds at most a handful of frames (groups are
    // small; duplication adds a few) — a higher count means the parser
    // lost its mind, which the bound turns into a visible failure.
    while (decoded < 64) {
      auto block = assembler.next_block();
      if (!block) break;
      if (originals.find(common::xxh64(*block)) == originals.end()) {
        detail = "decoded a block that was never encoded (size " +
                 std::to_string(block->size()) + ")";
        return Outcome::kCorrupted;
      }
      ++decoded;
    }
    if (decoded >= 64) {
      detail = "assembler produced >= 64 blocks from a tiny stream";
      return Outcome::kCorrupted;
    }
  } catch (const compress::CodecError&) {
    threw = true;
  }
  return threw ? Outcome::kRejected : Outcome::kIntact;
}

}  // namespace

std::string MinifuzzResult::summary() const {
  std::ostringstream os;
  os << iterations << " mutations: " << rejected << " rejected, " << intact
     << " intact, " << failures.size() << " FAILURES (fingerprint 0x"
     << std::hex << fingerprint << ")";
  for (const auto& f : failures) os << "\n  " << f;
  return os.str();
}

MinifuzzResult run_frame_minifuzz(const compress::CodecRegistry& registry,
                                  std::size_t level,
                                  const MinifuzzConfig& config) {
  MinifuzzResult result;
  const auto& rung = registry.level(level);
  const int per_stream = std::max(1, config.mutations_per_stream);
  std::uint64_t group = 0;
  while (result.iterations < static_cast<std::uint64_t>(config.iterations)) {
    // One group: encode 1-3 blocks, then re-mutate fresh copies of the
    // wire many times. Group seeds derive from the base seed alone, so
    // the whole run replays from STRATO_FUZZ_SEED.
    const std::uint64_t group_seed =
        common::SplitMix64(config.seed ^ (0x9E3779B97F4A7C15ULL * (group + 1)))
            .next();
    ++group;
    common::Xoshiro256 rng(group_seed);

    const std::size_t blocks = 1 + rng.below(3);
    common::Bytes wire;
    std::vector<std::size_t> offsets;
    std::set<std::uint64_t> originals;
    for (std::size_t b = 0; b < blocks; ++b) {
      const common::Bytes payload =
          fuzz_payload(rng, rng.below(config.max_payload + 1));
      offsets.push_back(wire.size());
      const common::Bytes frame = compress::encode_block(
          *rung.codec, static_cast<std::uint8_t>(rung.level), payload);
      wire.insert(wire.end(), frame.begin(), frame.end());
      originals.insert(common::xxh64(payload));
    }

    for (int m = 0;
         m < per_stream &&
         result.iterations < static_cast<std::uint64_t>(config.iterations);
         ++m) {
      const std::uint64_t mut_seed =
          common::SplitMix64(group_seed ^ static_cast<std::uint64_t>(m + 1))
              .next();
      StreamMutator mutator(mut_seed);
      common::Bytes damaged = wire;
      std::vector<std::string> applied;
      // 1-3 stacked mutations; only the first sees valid frame offsets
      // (structural mutations invalidate the layout).
      common::Xoshiro256 depth_rng(mut_seed ^ 0xDEF7);
      const int depth = 1 + static_cast<int>(depth_rng.below(3));
      for (int d = 0; d < depth; ++d) {
        applied.push_back(
            mutator.mutate(damaged, d == 0 ? offsets : std::vector<std::size_t>{})
                .description);
      }

      std::string detail;
      const Outcome outcome = classify(registry, damaged, originals, detail);
      ++result.iterations;
      fold(result.fingerprint, static_cast<std::uint64_t>(outcome));
      fold(result.fingerprint, common::xxh64(damaged));
      switch (outcome) {
        case Outcome::kIntact: ++result.intact; break;
        case Outcome::kRejected: ++result.rejected; break;
        case Outcome::kCorrupted: {
          std::ostringstream os;
          os << "level=" << rung.label << " group_seed=" << group_seed
             << " mutation_seed=" << mut_seed << " [";
          for (std::size_t i = 0; i < applied.size(); ++i) {
            os << (i ? "; " : "") << applied[i];
          }
          os << "]: " << detail;
          result.failures.push_back(os.str());
          break;
        }
      }
    }
  }
  return result;
}

MinifuzzResult run_garbage_minifuzz(const compress::CodecRegistry& registry,
                                    const MinifuzzConfig& config) {
  MinifuzzResult result;
  common::Xoshiro256 rng(config.seed ^ 0x6A3BA6E0ULL);
  while (result.iterations < static_cast<std::uint64_t>(config.iterations)) {
    common::Bytes garbage(1 + rng.below(config.max_payload));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    // Half the time, make it look like a frame so parsing gets further.
    if (rng.below(2) == 0 && garbage.size() >= compress::kFrameHeaderSize) {
      common::store_le32(garbage.data(), compress::kFrameMagic);
    }

    // Raw decompress of garbage through every codec.
    for (std::size_t l = 0; l < registry.level_count(); ++l) {
      common::Bytes out(1 + rng.below(2 * config.max_payload));
      try {
        registry.level(l).codec->decompress(garbage, out);
        fold(result.fingerprint, 1);
      } catch (const compress::CodecError&) {
        fold(result.fingerprint, 2);
        ++result.rejected;
      }
      // Anything else (segfault, other exception) escapes and fails the
      // caller loudly — exactly what we want.
    }

    // Assembler over the same garbage.
    std::string detail;
    const Outcome outcome = classify(registry, garbage, {}, detail);
    if (outcome == Outcome::kCorrupted) {
      result.failures.push_back("garbage stream decoded to a block: " +
                                detail);
    } else if (outcome == Outcome::kRejected) {
      ++result.rejected;
    } else {
      ++result.intact;  // never completed a header+payload — also fine
    }
    fold(result.fingerprint, static_cast<std::uint64_t>(outcome));
    ++result.iterations;
  }
  return result;
}

}  // namespace strato::verify
