// Corpus generator throughput: how fast each of the paper's three classes
// (HIGH fax, MODERATE text, LOW entropy; corpus/generator.h) fills a
// buffer. Every bench, test and bench/suite workload draws its input from
// these generators, so their rate bounds each one's set-up:
// socket_bulk_medium builds a 32 MiB MODERATE pool before it starts.
// Emits one JSON object on stdout and mirrors it to the file named by
// argv[1] (the committed BENCH_corpus.json, gated by
// scripts/check_bench.sh).
//
// Each class is timed in rounds (scaling_rounds.h): each round resets
// every generator to the seed and generates 32 MiB of it, class by class,
// into one reused buffer that was written once before timing, so neither
// page faults nor zero fill land in a timed region. `bytes` and `digest`
// (XXH64 of the 32 MiB, the constants CorpusGolden.StreamDigests pins)
// are det fields; `mib_per_s` is the median rate, a timing field. The
// bench exits 1 when any round's digest differs from its class's first.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "corpus/generator.h"
#include "scaling_rounds.h"

namespace {

using strato::corpus::Compressibility;

constexpr std::size_t kBytes = 32ull << 20;
constexpr std::uint64_t kSeed = 424242;  // bench/suite's default seed

}  // namespace

int main(int argc, char** argv) {
  const Compressibility classes[] = {Compressibility::kHigh,
                                     Compressibility::kModerate,
                                     Compressibility::kLow};
  std::vector<std::unique_ptr<strato::corpus::Generator>> gens;
  for (const Compressibility c : classes) {
    gens.push_back(strato::corpus::make_generator(c, kSeed));
  }
  strato::common::Bytes buf(kBytes);

  const auto rows = strato::bench::time_rows(
      gens.size(), static_cast<double>(kBytes) / (1024.0 * 1024.0),
      [&](std::size_t i) {
        gens[i]->reset(kSeed);
        const auto start = std::chrono::steady_clock::now();
        gens[i]->generate(buf);
        const auto end = std::chrono::steady_clock::now();
        return strato::bench::RoundResult{
            std::chrono::duration<double>(end - start).count(),
            strato::common::xxh64(buf)};
      });
  if (!rows) return 1;

  strato::bench::JsonWriter out("corpus");
  out.det("seed", kSeed);
  out.info("hardware_concurrency", std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < gens.size(); ++i) {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>((*rows)[i].digest));
    out.row();
    out.det("class", strato::corpus::to_string(classes[i]));
    out.det("bytes", std::uint64_t{kBytes});
    out.det("digest", digest);
    strato::bench::write_rate(out, (*rows)[i]);
  }
  return out.write(argc, argv);
}
