// Ablation: what does block independence cost?
//
// Section III-B: every 128 KB channel block is self-contained ("contains
// all the information to be decompressed by the receiver, including ...
// the compression dictionary"). That robustness has a ratio price: each
// block starts with a cold dictionary. This bench compares self-contained
// blocks against a rolling 64 KB cross-block window at several block
// sizes, over all three corpus classes — quantifying why the paper's
// 128 KB choice is comfortable (the penalty is small there) while tiny
// blocks would make independence expensive.
#include <cstdio>

#include "compress/streaming.h"
#include "corpus/generator.h"
#include "expkit/tables.h"

using namespace strato;

namespace {

struct Cell {
  double independent_ratio = 0.0;
  double streaming_ratio = 0.0;
};

Cell measure(corpus::Compressibility cls, std::size_t block_size) {
  constexpr std::size_t kTotal = 8 << 20;
  auto gen_a = corpus::make_generator(cls, 17);
  auto gen_b = corpus::make_generator(cls, 17);
  compress::StreamingLzCompressor streaming;
  common::Bytes scratch(compress::lz77_max_compressed_size(block_size));

  std::size_t independent = 0, stream = 0;
  for (std::size_t done = 0; done < kTotal; done += block_size) {
    const auto raw_a = corpus::take(*gen_a, block_size);
    independent +=
        compress::lz77_compress(raw_a, scratch, compress::LzEffort::kLight);
    const auto raw_b = corpus::take(*gen_b, block_size);
    stream += streaming.compress_block(raw_b).size();
  }
  const double total = static_cast<double>(kTotal);
  return {static_cast<double>(independent) / total,
          static_cast<double>(stream) / total};
}

}  // namespace

int main() {
  std::printf(
      "Ablation: self-contained blocks (the paper's design) vs a rolling\n"
      "64 KB cross-block window, FastLz engine, 8 MB per cell.\n\n");
  for (const auto cls :
       {corpus::Compressibility::kHigh, corpus::Compressibility::kModerate,
        corpus::Compressibility::kLow}) {
    std::printf("--- %s data ---\n", corpus::to_string(cls));
    expkit::TablePrinter table;
    table.header({"block size", "independent ratio", "streaming ratio",
                  "independence penalty"});
    for (const std::size_t bs :
         {std::size_t{2} << 10, std::size_t{8} << 10, std::size_t{32} << 10,
          std::size_t{128} << 10}) {
      const Cell c = measure(cls, bs);
      const double penalty =
          (c.independent_ratio - c.streaming_ratio) /
          std::max(1e-9, c.streaming_ratio);
      table.row({std::to_string(bs >> 10) + " KB",
                 expkit::fmt(c.independent_ratio, 3),
                 expkit::fmt(c.streaming_ratio, 3),
                 "+" + expkit::fmt(penalty * 100.0, 1) + "%"});
    }
    std::printf("%s\n", table.str().c_str());
  }
  std::printf(
      "Expected shape: at 2 KB blocks independence costs tens of percent of\n"
      "compressed size; at the paper's 128 KB it is a few percent — the\n"
      "robustness (order/loss tolerance, per-block codec switching) is\n"
      "nearly free, which justifies Section III-B's design.\n");
  return 0;
}
