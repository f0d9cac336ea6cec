#include "metrics/timeseries.h"

#include <algorithm>

namespace strato::metrics {

double TimeSeries::at(common::SimTime t, double fallback) const {
  // points_ is appended in time order; binary search the last point <= t.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](common::SimTime lhs, const auto& p) { return lhs < p.first; });
  if (it == points_.begin()) return fallback;
  return std::prev(it)->second;
}

void TimelineRecorder::write_csv(std::ostream& os,
                                 common::SimTime step) const {
  common::SimTime end;
  for (const auto& [k, s] : series_) {
    if (!s.points().empty()) end = std::max(end, s.points().back().first);
  }
  os << "time_s";
  for (const auto& [k, s] : series_) os << "," << k;
  os << "\n";
  for (common::SimTime t; t <= end; t += step) {
    os << t.to_seconds();
    for (const auto& [k, s] : series_) os << "," << s.at(t);
    os << "\n";
  }
}

}  // namespace strato::metrics
