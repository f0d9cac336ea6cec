// Timed rounds for the rate benches: the scaling benches
// (bench_pipeline_scaling, bench_decode_scaling), bench_corpus and
// bench_codec_micro.
//
// One timing per row lets a slow stretch of host time decide a row, and
// with it the scaling benches' 2.0x floor: a 1-worker pass that lands on
// a slow stretch inflates every speedup, a 4-worker one hides the
// parallelism. So each row is timed in kScalingRounds rounds, and each
// round runs every row once, in order, so that host drift hits every row
// alike (time_rows). A row reports the median rate of its rounds (the
// timing field) and their interquartile range (an info field); in the
// scaling benches a row is a worker count, and speedups and the floor
// are ratios of medians (time_rounds).
//
// Acceptance floor: on a host with >= 4 hardware threads, the best
// 4-worker row must reach kSpeedupFloor times its 1-worker median, or the
// bench exits 1 after printing its JSON.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bench_json.h"

namespace strato::bench {

/// Timed rounds per row; one untimed warm-up round (pools, page faults)
/// runs first.
inline constexpr int kScalingRounds = 5;
inline constexpr double kSpeedupFloor = 2.0;

/// One run of one row: wall seconds and a digest of its output.
struct RoundResult {
  double secs = 0.0;
  std::uint64_t digest = 0;
};

/// A row's rate over the timed rounds, in MiB/s, and the digest all of
/// its runs produced.
struct RoundStats {
  double median_mib_s = 0.0;
  double iqr_mib_s = 0.0;
  std::uint64_t digest = 0;
};

/// A worker count's rate over the timed rounds and its median over the
/// baseline's.
struct ScalingRow {
  std::size_t workers = 0;
  RoundStats rate;
  double speedup = 0.0;
};

namespace detail {

/// Linear-interpolation quantile of sorted values.
inline double quantile(const std::vector<double>& sorted, double p) {
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace detail

/// Runs run(i) -> RoundResult for every row i < `rows` in each round and
/// returns each row's stats. Every run's digest must equal its row's
/// first: on a mismatch this names the row and round on stderr and
/// returns nullopt. `mib` is the data each run processes.
template <typename Run>
std::optional<std::vector<RoundStats>> time_rows(std::size_t rows, double mib,
                                                 Run run) {
  std::vector<std::vector<double>> rates(rows);
  std::vector<RoundStats> stats(rows);
  for (int round = -1; round < kScalingRounds; ++round) {
    for (std::size_t i = 0; i < rows; ++i) {
      const RoundResult r = run(i);
      if (round < 0) stats[i].digest = r.digest;
      if (r.digest != stats[i].digest) {
        std::fprintf(stderr, "digest mismatch at row %zu, round %d\n", i,
                     round);
        return std::nullopt;
      }
      if (round >= 0) rates[i].push_back(mib / r.secs);
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::sort(rates[i].begin(), rates[i].end());
    stats[i].median_mib_s = detail::quantile(rates[i], 0.5);
    stats[i].iqr_mib_s = detail::quantile(rates[i], 0.75) -
                         detail::quantile(rates[i], 0.25);
  }
  return stats;
}

/// time_rows over worker counts, run(workers) -> RoundResult, one row per
/// count in the order given; the first count is the speedup baseline, and
/// every count's digest must equal its digest.
template <typename Run>
std::optional<std::vector<ScalingRow>> time_rounds(
    std::span<const std::size_t> worker_counts, double mib, Run run) {
  const auto stats = time_rows(worker_counts.size(), mib, [&](std::size_t i) {
    return run(worker_counts[i]);
  });
  if (!stats) return std::nullopt;
  const RoundStats& base = (*stats)[0];
  std::vector<ScalingRow> rows;
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const RoundStats& rate = (*stats)[i];
    if (rate.digest != base.digest) {
      std::fprintf(stderr, "digest mismatch at workers=%zu\n",
                   worker_counts[i]);
      return std::nullopt;
    }
    rows.push_back(
        {worker_counts[i], rate, rate.median_mib_s / base.median_mib_s});
  }
  return rows;
}

/// Write a row's median rate (timing) and its IQR (info).
inline void write_rate(JsonWriter& out, const RoundStats& rate) {
  out.timing("mib_per_s", rate.median_mib_s, 1);
  out.info("mib_per_s_iqr", rate.iqr_mib_s, 1);
}

/// Write a row's timing fields after its det fields: the median rate, its
/// IQR, its speedup and whether the row runs more workers than the host
/// has hardware threads.
inline void write_timing(JsonWriter& out, const ScalingRow& row) {
  write_rate(out, row.rate);
  out.info("speedup_vs_1", row.speedup, 2);
  out.info("oversubscribed",
           std::uint64_t{row.workers > std::thread::hardware_concurrency()});
}

/// The bench's exit status once its JSON is written (`rc`): 1 when the
/// best 4-worker speedup misses the floor on a host that can show it.
inline int floor_status(const char* bench, double best_at_4, int rc) {
  if (std::thread::hardware_concurrency() >= 4 && best_at_4 < kSpeedupFloor) {
    std::fprintf(stderr,
                 "%s: best speedup at 4 workers %.2f is below the %.1fx "
                 "floor\n",
                 bench, best_at_4, kSpeedupFloor);
    return 1;
  }
  return rc;
}

}  // namespace strato::bench
