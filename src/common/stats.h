// Streaming and batch statistics used by the measurement study benches.
//
// The paper reports mean (SD) completion times (Table II) and throughput
// *distributions* (Fig. 2 / Fig. 3, drawn as boxplots). RunningStats gives
// numerically-stable mean/variance; Sample keeps the raw observations and
// yields quantiles / five-number summaries; Histogram buckets rates for
// the timeline plots.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace strato::common {

/// Welford-style streaming mean / variance / min / max.
class RunningStats {
 public:
  /// Absorb one observation.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  /// Number of observations absorbed so far.
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Arithmetic mean (0 when empty).
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator; 0 with fewer than two points).
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const;
  /// Smallest observation (0 when empty).
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  /// Largest observation (0 when empty).
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number summary (Tukey boxplot statistics).
struct FiveNumber {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  /// Observations outside [q1 - 1.5 IQR, q3 + 1.5 IQR].
  std::size_t outliers = 0;
};

/// Batch sample holding raw observations; supports quantiles and boxplot
/// statistics. Used for the throughput-distribution figures.
class Sample {
 public:
  void add(double x) { xs_.push_back(x); }
  void reserve(std::size_t n) { xs_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Linear-interpolation quantile, q in [0,1]. Empty sample yields 0.
  [[nodiscard]] double quantile(double q) const;

  /// Boxplot statistics with 1.5*IQR outlier count.
  [[nodiscard]] FiveNumber five_number() const;

  /// Absorb all of `other`'s observations (fleet: per-tenant samples fold
  /// into the all-tenant aggregate).
  void merge(const Sample& other);

 private:
  // Sorted lazily; mutable cache keeps quantile calls cheap.
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  std::vector<double> xs_;

  const std::vector<double>& sorted() const;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp into
/// the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Add `other`'s counts bucket-by-bucket. Requires identical layout
  /// (same lo, hi, bucket count) — per-tenant goodput histograms share
  /// one layout exactly so they stay mergeable. @returns false (and
  /// leaves *this untouched) on a layout mismatch.
  [[nodiscard]] bool merge(const Histogram& other);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace strato::common
