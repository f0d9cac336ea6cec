#include "verify/oracle.h"

#include <algorithm>
#include <sstream>

#include "common/simd.h"
#include "compress/decode_pipeline.h"
#include "compress/framing.h"
#include "compress/pipeline.h"

namespace strato::verify {

std::string OracleReport::summary() const {
  std::ostringstream os;
  os << checks << " checks, " << failures.size() << " failures";
  for (const auto& f : failures) os << "\n  " << f;
  return os.str();
}

namespace {

/// First divergence between two buffers, for failure context.
std::string diff_context(common::ByteSpan a, common::ByteSpan b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << "size " << a.size() << " vs " << b.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      os << "first diff at byte " << i << " (0x" << std::hex
         << static_cast<int>(a[i]) << " vs 0x" << static_cast<int>(b[i])
         << ")";
      return os.str();
    }
  }
  return "identical";
}

}  // namespace

void Oracle::check_roundtrip(common::ByteSpan data, const std::string& tag,
                             OracleReport& report) const {
  for (std::size_t l = 0; l < registry_.level_count(); ++l) {
    const auto& rung = registry_.level(l);
    const compress::Codec& codec = *rung.codec;
    const std::string where = tag + " level=" + rung.label;

    // Raw codec round-trip + worst-case bound.
    ++report.checks;
    common::Bytes comp;
    try {
      comp = codec.compress(data);
    } catch (const std::exception& e) {
      report.failures.push_back(where + ": compress threw: " + e.what());
      continue;
    }
    if (comp.size() > codec.max_compressed_size(data.size())) {
      report.failures.push_back(
          where + ": compressed size " + std::to_string(comp.size()) +
          " exceeds max_compressed_size bound " +
          std::to_string(codec.max_compressed_size(data.size())));
    }
    ++report.checks;
    try {
      const common::Bytes back = codec.decompress(comp, data.size());
      if (!std::equal(back.begin(), back.end(), data.begin(), data.end())) {
        report.failures.push_back(where + ": raw round-trip diverged (" +
                                  diff_context(back, data) + ")");
      }
    } catch (const std::exception& e) {
      report.failures.push_back(where +
                                ": decompress of own output threw: " +
                                e.what());
    }

    // Framed path: encode_block applies the stored fallback and checksum.
    ++report.checks;
    try {
      const common::Bytes frame = compress::encode_block(
          codec, static_cast<std::uint8_t>(rung.level), data);
      const common::Bytes back = compress::decode_block(frame, registry_);
      if (!std::equal(back.begin(), back.end(), data.begin(), data.end())) {
        report.failures.push_back(where + ": framed round-trip diverged (" +
                                  diff_context(back, data) + ")");
      }
    } catch (const std::exception& e) {
      report.failures.push_back(where + ": framed round-trip threw: " +
                                e.what());
    }
  }
}

void Oracle::check_simd_identity(common::ByteSpan data, const std::string& tag,
                                 OracleReport& report) const {
  namespace simd = common::simd;
  constexpr simd::Isa kCandidates[] = {simd::Isa::kSse2, simd::Isa::kAvx2,
                                       simd::Isa::kNeon};
  for (std::size_t l = 0; l < registry_.level_count(); ++l) {
    const auto& rung = registry_.level(l);
    const compress::Codec& codec = *rung.codec;
    const std::string where = tag + " level=" + rung.label;

    // Scalar reference wire — the fallback table is always available, so
    // this also pins what a -DSTRATO_SIMD=OFF build would emit.
    common::Bytes reference;
    {
      simd::ScopedIsa scalar(simd::Isa::kScalar);
      ++report.checks;
      try {
        reference = codec.compress(data);
      } catch (const std::exception& e) {
        report.failures.push_back(where + " isa=scalar: compress threw: " +
                                  e.what());
        continue;
      }
    }

    for (const simd::Isa isa : kCandidates) {
      simd::ScopedIsa forced(isa);
      if (!forced.ok()) continue;  // this build/CPU cannot run it
      const std::string isa_where =
          where + " isa=" + simd::to_string(isa);
      // Encode-side identity: the vectorized kernels must emit the exact
      // scalar wire, byte for byte.
      ++report.checks;
      try {
        const common::Bytes wire = codec.compress(data);
        if (wire != reference) {
          report.failures.push_back(isa_where +
                                    ": wire diverges from scalar (" +
                                    diff_context(wire, reference) + ")");
        }
      } catch (const std::exception& e) {
        report.failures.push_back(isa_where + ": compress threw: " + e.what());
      }
      // Decode-side identity: the scalar wire must decode under the
      // vectorized copy/refill kernels back to the original bytes.
      ++report.checks;
      try {
        const common::Bytes back = codec.decompress(reference, data.size());
        if (!std::equal(back.begin(), back.end(), data.begin(), data.end())) {
          report.failures.push_back(isa_where +
                                    ": decode of scalar wire diverged (" +
                                    diff_context(back, data) + ")");
        }
      } catch (const std::exception& e) {
        report.failures.push_back(isa_where + ": decompress threw: " +
                                  e.what());
      }
    }
  }
}

common::Bytes Oracle::serial_wire(const std::vector<common::Bytes>& payloads,
                                  const std::vector<int>& levels) const {
  const int max_level = static_cast<int>(registry_.level_count()) - 1;
  common::Bytes wire;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const int level =
        std::clamp(i < levels.size() ? levels[i] : 0, 0, max_level);
    const auto& rung = registry_.level(static_cast<std::size_t>(level));
    const common::Bytes frame = compress::encode_block(
        *rung.codec, static_cast<std::uint8_t>(level), payloads[i]);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

void Oracle::check_pipeline_identity(
    const std::vector<common::Bytes>& payloads, const std::vector<int>& levels,
    const std::vector<std::size_t>& worker_counts,
    OracleReport& report) const {
  const common::Bytes reference = serial_wire(payloads, levels);
  for (const std::size_t workers : worker_counts) {
    const std::string where = "workers=" + std::to_string(workers);
    common::Bytes wire;
    {
      compress::ParallelBlockPipeline pipeline(
          registry_, workers,
          [&wire](common::ByteSpan frame, std::size_t, int) {
            wire.insert(wire.end(), frame.begin(), frame.end());
          });
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        pipeline.submit(i < levels.size() ? levels[i] : 0, payloads[i]);
      }
      pipeline.flush();
    }
    ++report.checks;
    if (wire != reference) {
      report.failures.push_back(where + ": wire differs from serial path (" +
                                diff_context(wire, reference) + ")");
      continue;  // decoding a divergent wire would double-report
    }
    // Decode the parallel wire end to end: payload sequence must survive.
    ++report.checks;
    compress::FrameAssembler assembler(registry_);
    assembler.feed(wire);
    std::size_t got = 0;
    try {
      while (auto block = assembler.next_block()) {
        if (got >= payloads.size()) {
          report.failures.push_back(where + ": decoded more blocks than "
                                            "submitted");
          break;
        }
        if (*block != payloads[got]) {
          report.failures.push_back(where + ": block " + std::to_string(got) +
                                    " diverged after decode (" +
                                    diff_context(*block, payloads[got]) + ")");
        }
        ++got;
      }
    } catch (const std::exception& e) {
      report.failures.push_back(where + ": decode of pipeline wire threw: " +
                                e.what());
    }
    if (got != payloads.size()) {
      report.failures.push_back(where + ": decoded " + std::to_string(got) +
                                " of " + std::to_string(payloads.size()) +
                                " blocks");
    }
  }
}

namespace {

/// Outcome of decoding one wire end to end: the delivered blocks plus the
/// error (if any) that ended the stream.
struct DecodeRun {
  std::vector<common::Bytes> blocks;
  std::string error;  // empty = clean
};

}  // namespace

void Oracle::check_decode_identity(
    common::ByteSpan wire, const std::vector<std::size_t>& worker_counts,
    const std::vector<std::size_t>& chunk_sizes, OracleReport& report) const {
  // Serial reference: the FrameAssembler defines the observable contract
  // (block sequence, and which error after how many good blocks).
  DecodeRun reference;
  {
    compress::FrameAssembler assembler(registry_);
    assembler.feed(wire);
    try {
      while (auto block = assembler.next_block()) {
        reference.blocks.push_back(std::move(*block));
      }
    } catch (const std::exception& e) {
      reference.error = e.what();
    }
  }

  for (const std::size_t workers : worker_counts) {
    for (const std::size_t chunk : chunk_sizes) {
      const std::string where = "decode workers=" + std::to_string(workers) +
                                " chunk=" + std::to_string(chunk);
      DecodeRun run;
      {
        compress::DecodePipelineConfig cfg;
        cfg.worker_count = workers;
        compress::ParallelBlockDecodePipeline pipeline(registry_, cfg);
        try {
          // Feed in chunks, draining between feeds — exercises partial
          // frames, the reorder window, and segment wraparound.
          std::size_t off = 0;
          while (off < wire.size()) {
            const std::size_t n = std::min(chunk, wire.size() - off);
            pipeline.feed(wire.subspan(off, n));
            off += n;
            while (auto block = pipeline.next_block()) {
              run.blocks.emplace_back(block->data.begin(), block->data.end());
            }
          }
        } catch (const std::exception& e) {
          run.error = e.what();
        }
      }
      ++report.checks;
      if (run.error != reference.error) {
        report.failures.push_back(where + ": error mismatch (\"" + run.error +
                                  "\" vs serial \"" + reference.error + "\")");
        continue;
      }
      ++report.checks;
      if (run.blocks.size() != reference.blocks.size()) {
        report.failures.push_back(
            where + ": delivered " + std::to_string(run.blocks.size()) +
            " blocks, serial delivered " +
            std::to_string(reference.blocks.size()));
        continue;
      }
      ++report.checks;
      for (std::size_t i = 0; i < run.blocks.size(); ++i) {
        if (run.blocks[i] != reference.blocks[i]) {
          report.failures.push_back(
              where + ": block " + std::to_string(i) + " diverged (" +
              diff_context(run.blocks[i], reference.blocks[i]) + ")");
          break;
        }
      }
    }
  }
}

}  // namespace strato::verify
