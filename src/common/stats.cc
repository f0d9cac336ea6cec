#include "common/stats.h"

#include <cmath>

namespace strato::common {

double RunningStats::stddev() const { return std::sqrt(variance()); }

const std::vector<double>& Sample::sorted() const {
  if (!sorted_valid_ || sorted_.size() != xs_.size()) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double Sample::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Sample::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double Sample::min() const { return xs_.empty() ? 0.0 : sorted().front(); }
double Sample::max() const { return xs_.empty() ? 0.0 : sorted().back(); }

double Sample::quantile(double q) const {
  const auto& s = sorted();
  if (s.empty()) return 0.0;
  if (s.size() == 1) return s[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= s.size()) return s.back();
  return s[idx] * (1.0 - frac) + s[idx + 1] * frac;
}

FiveNumber Sample::five_number() const {
  FiveNumber f;
  if (xs_.empty()) return f;
  f.min = min();
  f.q1 = quantile(0.25);
  f.median = quantile(0.5);
  f.q3 = quantile(0.75);
  f.max = max();
  const double iqr = f.q3 - f.q1;
  const double lo = f.q1 - 1.5 * iqr;
  const double hi = f.q3 + 1.5 * iqr;
  for (double x : xs_) {
    if (x < lo || x > hi) ++f.outliers;
  }
  return f;
}

void Sample::merge(const Sample& other) {
  xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
  sorted_valid_ = false;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets == 0 ? 1 : buckets, 0) {}

void Histogram::add(double x) {
  const double span = hi_ - lo_;
  std::size_t i = 0;
  if (span > 0.0) {
    const double rel = (x - lo_) / span;
    const auto n = static_cast<double>(counts_.size());
    i = static_cast<std::size_t>(std::clamp(rel * n, 0.0, n - 1.0));
  }
  ++counts_[i];
  ++total_;
}

bool Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  return true;
}

}  // namespace strato::common
