// Time-series recording for the timeline figures.
//
// Figs. 4-6 plot CPU utilization, application/network throughput and the
// chosen compression level against time. Experiments append samples to
// named series here; benches dump them as aligned CSV for plotting.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace strato::metrics {

/// One named (time, value) series.
class TimeSeries {
 public:
  void add(common::SimTime t, double v) { points_.emplace_back(t, v); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] const std::vector<std::pair<common::SimTime, double>>&
  points() const {
    return points_;
  }

  /// Value at or before `t` (stepwise), or `fallback` when none.
  [[nodiscard]] double at(common::SimTime t, double fallback = 0.0) const;

 private:
  std::vector<std::pair<common::SimTime, double>> points_;
};

/// A collection of named series sharing one experiment timeline.
class TimelineRecorder {
 public:
  /// Append a sample to series `name` (created on first use).
  void record(const std::string& name, common::SimTime t, double v) {
    series_[name].add(t, v);
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return series_.count(name) != 0;
  }
  [[nodiscard]] const TimeSeries& series(const std::string& name) const {
    return series_.at(name);
  }

  /// Write "time,<series...>" CSV resampled on a fixed step.
  void write_csv(std::ostream& os, common::SimTime step) const;

 private:
  std::map<std::string, TimeSeries> series_;
};

}  // namespace strato::metrics
