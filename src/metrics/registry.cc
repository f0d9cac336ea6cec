#include "metrics/registry.h"

namespace strato::metrics {

Counter& MetricRegistry::counter(std::string_view name) {
  common::MutexLock lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  common::MutexLock lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

std::vector<MetricRegistry::Sample> MetricRegistry::snapshot() const {
  std::vector<Sample> out;
  common::MutexLock lk(mu_);
  out.reserve(counters_.size() + gauges_.size());
  // Two sorted maps merged by name keep the snapshot name-sorted without
  // a separate sort pass.
  auto c = counters_.begin();
  auto g = gauges_.begin();
  while (c != counters_.end() || g != gauges_.end()) {
    const bool take_counter =
        g == gauges_.end() ||
        (c != counters_.end() && c->first <= g->first);
    if (take_counter) {
      out.push_back(Sample{c->first, true,
                           static_cast<std::int64_t>(c->second.value())});
      ++c;
    } else {
      out.push_back(Sample{g->first, false, g->second.value()});
      ++g;
    }
  }
  return out;
}

std::string MetricRegistry::to_json() const {
  const auto samples = snapshot();
  std::string json = "{";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) json += ",";
    first = false;
    json += "\"" + s.name + "\":" + std::to_string(s.value);
  }
  json += "}";
  return json;
}

BlockCounters::BlockCounters(MetricRegistry& registry, Direction dir,
                             std::size_t levels)
    : registry_(registry),
      prefix_(dir == kTx ? "tx." : "rx."),
      // The block counts keep the names the transport first published.
      blocks_(registry.counter(dir == kTx ? "tx.frames" : "rx.blocks")),
      raw_(counter_named("raw_bytes")),
      framed_(counter_named("framed_bytes")) {
  for (std::size_t l = 0; l < levels; ++l) {
    levels_.push_back(&counter_named("blocks.level" + std::to_string(l)));
  }
}

std::vector<std::uint64_t> BlockCounters::blocks_per_level() const {
  std::vector<std::uint64_t> out;
  for (const Counter* c : levels_) out.push_back(c->value());
  return out;
}

Counter& BlockCounters::counter_named(std::string_view suffix) {
  return registry_.counter(prefix_ + std::string(suffix));
}

Gauge& BlockCounters::gauge_named(std::string_view suffix) {
  return registry_.gauge(prefix_ + std::string(suffix));
}

}  // namespace strato::metrics
