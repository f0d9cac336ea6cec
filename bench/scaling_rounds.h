// Worker-count rounds for the scaling benches (bench_pipeline_scaling,
// bench_decode_scaling).
//
// One timing per worker count lets a slow stretch of host time decide a
// row, and with it the 2.0x floor: a 1-worker pass that lands on a slow
// stretch inflates every speedup, a 4-worker one hides the parallelism.
// So each row is timed in kScalingRounds rounds, and each round runs
// every worker count once, in order, so that host drift hits every row
// alike. A row reports the median rate of its rounds (the timing field)
// and their interquartile range (an info field), and speedups and the
// floor are ratios of medians.
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

/// One run at one worker count: wall seconds and a digest of its output.
struct RoundResult {
  double secs = 0.0;
  std::uint64_t digest = 0;
};

/// A worker count's rate over the timed rounds, in MiB/s, and its median
/// over the baseline's.
struct ScalingRow {
  std::size_t workers = 0;
  double median_mib_s = 0.0;
  double iqr_mib_s = 0.0;
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

/// Runs run(workers) -> RoundResult for every worker count in each round
/// and returns one row per count, in the order given; the first count is
/// the speedup baseline. Every run's digest must equal the first run's:
/// on a mismatch this names the run on stderr and returns nullopt.
/// `mib` is the data each run processes.
template <typename Run>
std::optional<std::vector<ScalingRow>> time_rounds(
    std::span<const std::size_t> worker_counts, double mib, Run run) {
  std::vector<std::vector<double>> rates(worker_counts.size());
  std::optional<std::uint64_t> digest0;
  for (int round = -1; round < kScalingRounds; ++round) {
    for (std::size_t i = 0; i < worker_counts.size(); ++i) {
      const RoundResult r = run(worker_counts[i]);
      if (!digest0) digest0 = r.digest;
      if (r.digest != *digest0) {
        std::fprintf(stderr, "digest mismatch at workers=%zu, round %d\n",
                     worker_counts[i], round);
        return std::nullopt;
      }
      if (round >= 0) rates[i].push_back(mib / r.secs);
    }
  }
  std::vector<ScalingRow> rows;
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    std::sort(rates[i].begin(), rates[i].end());
    const double median = detail::quantile(rates[i], 0.5);
    rows.push_back({worker_counts[i], median,
                    detail::quantile(rates[i], 0.75) -
                        detail::quantile(rates[i], 0.25),
                    median / (rows.empty() ? median : rows[0].median_mib_s)});
  }
  return rows;
}

/// Write a row's timing fields after its det fields: the median rate, its
/// IQR, its speedup and whether the row runs more workers than the host
/// has hardware threads.
inline void write_timing(JsonWriter& out, const ScalingRow& row) {
  out.timing("mib_per_s", row.median_mib_s, 1);
  out.info("mib_per_s_iqr", row.iqr_mib_s, 1);
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
