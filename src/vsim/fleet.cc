#include "vsim/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "compress/framing.h"
#include "vsim/profile.h"

namespace strato::vsim {

using common::SimTime;

namespace {

/// snprintf into a std::string — the deterministic JSON building block
/// (iostream float formatting is locale-sensitive; this is not).
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

/// Wire bytes per raw byte at (level, class) under a flow's ratio jitter:
/// the payload shrinks by the effective ratio, the frame header does not.
/// Mirrors TransferExperiment::run's per-block `wire` arithmetic in fluid
/// form.
double wire_factor(const LevelBehaviour& beh, double ratio_jit) {
  const double ratio_eff = std::min(1.0, beh.ratio * ratio_jit);
  return ratio_eff + static_cast<double>(compress::kFrameHeaderSize) /
                         static_cast<double>(compress::kDefaultBlockSize);
}

}  // namespace

TenantSpec background_tenant(const BgTrafficConfig& bg, double weight) {
  TenantSpec s;
  s.name = "background";
  s.weight = weight;
  s.share = ShareMode::kPerFlow;
  s.policy = TenantPolicy::fixed(0);
  s.kind = FlowKind::kDwell;
  s.arrival_per_s = bg.arrival_per_s;
  s.initial_flows = bg.initial_flows;
  s.max_in_flight = bg.max_flows;
  s.mean_dwell_s = bg.mean_holding_s;
  // BgTrafficProcess discards arrivals that find the link full; a
  // one-slot queue is the closest admission-control equivalent.
  s.max_queue = 1;
  return s;
}

FleetEngine::FleetEngine(FleetConfig config)
    : cfg_(std::move(config)),
      bank_(cfg_.topology, cfg_.seed),
      alloc_(cfg_.topology),
      io_cpu_s_per_byte_(profile(VirtTech::kKvmPara).net_cpu_s_per_byte),
      hard_stop_(SimTime::seconds(cfg_.horizon.to_seconds() *
                                  std::max(1.0, cfg_.drain_factor))) {
  runs_.resize(cfg_.tenants.size());
  metrics_.tenants.resize(cfg_.tenants.size());
  tenant_transfer_.resize(cfg_.tenants.size());
  tenant_active_.assign(cfg_.tenants.size(), 0);
  tenant_last_count_.assign(cfg_.tenants.size(), -1);
  tenant_flow_w_.assign(cfg_.tenants.size(), 0.0);
  tenant_per_tenant_.assign(cfg_.tenants.size(), 0);
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    TenantSpec& spec = cfg_.tenants[t];
    // The controller's ladder is the model's: levels index behaviour_
    // and raw_bytes_per_level.
    spec.policy.adaptive.num_levels =
        std::clamp(spec.policy.adaptive.num_levels, 1, CodecModel::kNumLevels);
    tenant_per_tenant_[t] = spec.share == ShareMode::kPerTenant ? 1 : 0;
    if (spec.kind == FlowKind::kTransfer && spec.max_in_flight > 0) {
      tenant_transfer_[t].reserve(static_cast<std::size_t>(spec.max_in_flight));
    }
    TenantRun& run = runs_[t];
    run.rng = common::Xoshiro256(cfg_.seed ^
                                 (0xC2B2AE3D27D4EB4FULL * (t + 1)));
    if (spec.arrival_per_s > 0.0) {
      run.next_arrival = SimTime::seconds(
          exponential_interval_s(run.rng, 1.0 / spec.arrival_per_s));
    } else {
      run.exhausted = true;  // only initial_flows, no arrival process
    }
    metrics_.tenants[t].name = spec.name;
  }
  // Flatten the (level, class) behaviour table once; refresh_flow_kernel
  // reads plain array slots instead of CodecModel's bounds-checked walk.
  const CodecModel model = CodecModel::defaults();
  behaviour_.resize(static_cast<std::size_t>(CodecModel::kNumLevels) *
                    CodecModel::kNumClasses);
  const corpus::Compressibility classes[] = {corpus::Compressibility::kHigh,
                                             corpus::Compressibility::kModerate,
                                             corpus::Compressibility::kLow};
  for (int l = 0; l < CodecModel::kNumLevels; ++l) {
    for (int c = 0; c < CodecModel::kNumClasses; ++c) {
      behaviour_[static_cast<std::size_t>(l) * CodecModel::kNumClasses +
                 c] = model.get(l, classes[c]);
    }
  }
}

void FleetEngine::refresh_flow_kernel(FlowTable::Id f) {
  const LevelBehaviour& beh =
      behaviour_[static_cast<std::size_t>(flows_.level[f]) *
                     CodecModel::kNumClasses +
                 static_cast<std::size_t>(flows_.cls[f])];
  const double wf = wire_factor(beh, flows_.ratio_jitter[f]);
  const double comp_speed = beh.compress_bytes_s * cfg_.codec_speed_factor *
                            flows_.speed_jitter[f];
  flows_.wf[f] = wf;
  flows_.comp_speed[f] = comp_speed;
  flows_.cpu_bound[f] = comp_speed * wf;
}

void FleetEngine::spawn_flow(std::uint16_t t, SimTime at) {
  const TenantSpec& spec = cfg_.tenants[t];
  TenantRun& run = runs_[t];
  TenantMetrics& tm = metrics_.tenants[t];
  ++run.spawned;
  ++tm.spawned;
  if (spec.max_queue > 0 && run.pending.size() >= spec.max_queue) {
    ++tm.rejected;
    return;
  }

  // Egress path: degenerate single-path topologies pin everything to
  // path 0; rack_spine_wan topologies pick a host uniformly and leave
  // through the WAN with probability wan_fraction; anything else picks a
  // path uniformly.
  std::uint32_t path = 0;
  const std::size_t pc = cfg_.topology.path_count();
  const std::size_t hosts = cfg_.topology.host_count();
  if (pc > 1) {
    if (hosts > 0 && pc == 2 * hosts) {
      const auto host = static_cast<std::size_t>(run.rng.below(hosts));
      path = run.rng.uniform() < spec.wan_fraction
                 ? cfg_.topology.wan_path(host)
                 : cfg_.topology.intra_path(host);
    } else {
      path = static_cast<std::uint32_t>(run.rng.below(pc));
    }
  }

  QueuedFlow q;
  q.arrival = at;
  q.path = path;
  if (spec.kind == FlowKind::kDwell) {
    q.dwell_ns = SimTime::seconds(
        exponential_interval_s(run.rng, spec.mean_dwell_s)).nanos();
  } else {
    // Corpus class from the tenant's mix (cumulative draw, normalized).
    const double msum = std::max(
        1e-12, spec.class_mix[0] + spec.class_mix[1] + spec.class_mix[2]);
    const double u = run.rng.uniform() * msum;
    if (u < spec.class_mix[0]) {
      q.cls = corpus::Compressibility::kHigh;
    } else if (u < spec.class_mix[0] + spec.class_mix[1]) {
      q.cls = corpus::Compressibility::kModerate;
    }
    const double drawn = exponential_interval_s(
        run.rng, static_cast<double>(spec.mean_flow_bytes));
    q.raw_bytes = std::max(spec.min_flow_bytes,
                           static_cast<std::uint64_t>(drawn));
    const BlockJitter jit = draw_block_jitter(run.rng);
    q.ratio_jit = jit.ratio;
    q.speed_jit = jit.speed;
  }
  run.pending.push_back(q);
}

void FleetEngine::generate_arrivals(SimTime now) {
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    const TenantSpec& spec = cfg_.tenants[t];
    TenantRun& run = runs_[t];
    // `spawned` includes initial_flows, so the limit may already be met
    // before the first arrival; the post-spawn check marks the tenant
    // exhausted as soon as an arrival reaches the limit.
    const auto at_limit = [&] {
      return spec.flow_limit > 0 && run.spawned >= spec.flow_limit;
    };
    while (!run.exhausted && run.next_arrival <= now) {
      if (at_limit()) {
        run.exhausted = true;
        break;
      }
      const SimTime at = run.next_arrival;
      spawn_flow(static_cast<std::uint16_t>(t), at);
      if (at_limit()) {
        run.exhausted = true;
        break;
      }
      run.next_arrival = at + SimTime::seconds(exponential_interval_s(
                                  run.rng, 1.0 / spec.arrival_per_s));
    }
    if (!run.exhausted && run.next_arrival > cfg_.horizon) {
      run.exhausted = true;  // no arrivals generated past the horizon
    }
  }
}

void FleetEngine::admit(SimTime now) {
  std::uint64_t admitted = 0;
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    const TenantSpec& spec = cfg_.tenants[t];
    TenantRun& run = runs_[t];
    TenantMetrics& tm = metrics_.tenants[t];
    while (!run.pending.empty() &&
           (spec.max_in_flight <= 0 || run.in_flight < spec.max_in_flight)) {
      const QueuedFlow& q = run.pending.front();
      // Per-tenant flows carry weight / active-count; assign the cached
      // value now so a count-stable epoch can skip the rewrite pass (the
      // pass overwrites this when the count did change).
      const double w = tenant_per_tenant_[t] ? tenant_flow_w_[t] : spec.weight;
      const auto tid = static_cast<std::uint16_t>(t);
      FlowTable::Id id;
      if (spec.kind == FlowKind::kDwell) {
        id = flows_.add_dwell(tid, q.path, w, q.arrival, now,
                              SimTime::ns(q.dwell_ns));
        active_dwell_.push_back(id);
      } else {
        id = flows_.add_transfer(tid, q.path, q.cls, q.raw_bytes, w,
                                 q.arrival, now, q.ratio_jit, q.speed_jit);
        if (spec.policy.kind == TenantPolicy::Kind::kStatic) {
          flows_.level[id] = static_cast<std::int8_t>(std::clamp(
              spec.policy.static_level, 0, CodecModel::kNumLevels - 1));
        }
        refresh_flow_kernel(id);
        tenant_transfer_[t].push_back(id);
      }
      tm.queue_wait_s_total += (now - q.arrival).to_seconds();
      run.pending.pop_front();
      ++tm.admitted;
      ++run.in_flight;
      ++tenant_active_[t];
      alloc_.add_flow(id, flows_.path[id]);
      ++admitted;
    }
  }
  work_.admissions += admitted;
}

void FleetEngine::recompute_rates(SimTime now) {
  bank_.capacities(now, link_cap_);
  const bool caps_changed = link_cap_ != link_cap_prev_;
  if (caps_changed) link_cap_prev_ = link_cap_;

  // kPerTenant tenants split their weight over their active flows, so a
  // tenant's aggregate share is independent of its flow count. The
  // per-tenant active counts are maintained incrementally (admit/finish)
  // and in steady state sit pinned at max_in_flight: a finish freed a
  // slot the same epoch's admit refilled. The division and per-flow
  // weight writes therefore run only when some count differs from the
  // one the weights were last written for — the value written is the
  // same expression the per-epoch rebuild computed, so skipping is
  // bit-exact.
  bool weights_changed = false;
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    if (tenant_per_tenant_[t] && tenant_active_[t] != tenant_last_count_[t]) {
      weights_changed = true;
      break;
    }
  }
  if (weights_changed) {
    for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
      if (!tenant_per_tenant_[t]) continue;
      if (tenant_active_[t] > 0) {
        tenant_flow_w_[t] =
            cfg_.tenants[t].weight / static_cast<double>(tenant_active_[t]);
      }
      tenant_last_count_[t] = tenant_active_[t];
      for (const FlowTable::Id id : tenant_transfer_[t]) {
        flows_.weight[id] = tenant_flow_w_[t];
      }
    }
    for (const FlowTable::Id id : active_dwell_) {
      if (tenant_per_tenant_[flows_.tenant[id]]) {
        flows_.weight[id] = tenant_flow_w_[flows_.tenant[id]];
      }
    }
    alloc_.invalidate_weights();
    ++work_.reweights;
  }

  alloc_.allocate_incremental(link_cap_, caps_changed, flows_.path,
                              flows_.weight, flows_.alloc_rate);
  // Rows retired by the last drain may be reused from the next admit on:
  // their remove_flow dirtied every link they crossed, so the refold
  // above compacted their tombstones. Reused any sooner, add_flow would
  // revive a tombstone and the link would count that flow twice.
  flows_.release_retired();
}

void FleetEngine::drain(SimTime from, SimTime dt) {
  const SimTime epoch_end = from + dt;
  const double dt_s = dt.to_seconds();
  std::uint64_t drained = active_dwell_.size();
  std::uint64_t windows = 0;
  std::uint64_t switches = 0;
  // Tenant by tenant, each tenant's sums fold in locals in admission
  // order: the same left folds a single pass over every flow computes,
  // since a flow's arithmetic reads no other flow's state. finish_flow
  // touches none of the four sums, and the walk drops each finished flow
  // from its list in place, keeping the others in admission order.
  for (std::size_t t = 0; t < tenant_transfer_.size(); ++t) {
    std::vector<FlowTable::Id>& ids = tenant_transfer_[t];
    if (ids.empty()) continue;
    drained += ids.size();
    const TenantPolicy& policy = cfg_.tenants[t].policy;
    const bool adaptive = policy.kind == TenantPolicy::Kind::kAdaptive;
    TenantMetrics& tm = metrics_.tenants[t];
    double raw_bytes = tm.raw_bytes;
    double wire_bytes = tm.wire_bytes;
    double cpu_s = tm.cpu_s;
    std::array<double, CodecModel::kNumLevels> per_level =
        tm.raw_bytes_per_level;
    std::size_t keep = 0;
    for (const FlowTable::Id id : ids) {
      // Sender-CPU bound: a flow cannot push wire bytes faster than its one
      // vCPU can compress them — wire rate <= comp_speed * wire_factor (the
      // fluid form of TransferExperiment::run's sender stage). Clamping
      // here, every epoch, keeps a skipped allocation correct when a level
      // switch moved the bound.
      const double wf = flows_.wf[id];
      const double rate = std::min(flows_.alloc_rate[id], flows_.cpu_bound[id]);
      const double raw_rate = std::max(1e-9, rate / wf);
      const EpochAdvance a =
          epoch_advance(flows_.raw_remaining[id], raw_rate, dt_s);
      const double wire_moved = a.raw_moved * wf;
      const double cpu = a.raw_moved / flows_.comp_speed[id] +
                         wire_moved * io_cpu_s_per_byte_;

      flows_.raw_remaining[id] -= a.raw_moved;
      raw_bytes += a.raw_moved;
      wire_bytes += wire_moved;
      cpu_s += cpu;
      per_level[static_cast<std::size_t>(flows_.level[id])] += a.raw_moved;

      if (flows_.raw_remaining[id] <= 1e-6) {
        finish_flow(id, from + SimTime::seconds(a.adv_s));
        continue;
      }
      ids[keep++] = id;  // keep <= the index being read

      // Decision windows close at epoch boundaries once >= t has elapsed —
      // the paper's application-data-rate signal, per flow.
      if (!adaptive) continue;
      const auto d = core::window_step(policy.adaptive, kFleetWindow,
                                       flows_.ctrl[id], flows_.window[id],
                                       a.raw_moved, epoch_end);
      if (!d) continue;
      ++windows;
      if (static_cast<std::int8_t>(d->level) != flows_.level[id]) {
        flows_.level[id] = static_cast<std::int8_t>(d->level);
        refresh_flow_kernel(id);
        ++switches;
      }
    }
    ids.resize(keep);
    tm.raw_bytes = raw_bytes;
    tm.wire_bytes = wire_bytes;
    tm.cpu_s = cpu_s;
    tm.raw_bytes_per_level = per_level;
  }

  // Dwell flows last: they contribute only integer counters and a max()
  // to the metrics, so ordering them after the transfers cannot change
  // any accumulated value. They hold their share without reading it.
  std::size_t keep = 0;
  for (const FlowTable::Id id : active_dwell_) {
    if (flows_.dwell_remaining[id] <= dt) {
      finish_flow(id, from + flows_.dwell_remaining[id]);
    } else {
      flows_.dwell_remaining[id] -= dt;
      active_dwell_[keep++] = id;
    }
  }
  active_dwell_.resize(keep);
  work_.flow_epochs += drained;
  work_.windows_closed += windows;
  work_.level_changes += switches;
}

void FleetEngine::finish_flow(FlowTable::Id f, SimTime at) {
  const std::uint16_t t = flows_.tenant[f];
  --tenant_active_[t];
  alloc_.remove_flow(f, flows_.path[f]);
  flows_.retire(f);
  TenantMetrics& tm = metrics_.tenants[t];
  ++tm.completed;
  --runs_[t].in_flight;
  metrics_.sim_completed_s =
      std::max(metrics_.sim_completed_s, at.to_seconds());
  if (flows_.kind[f] == FlowKind::kTransfer) {
    tm.completion_s.add((at - flows_.arrival[f]).to_seconds());
    const double service_s =
        std::max(1e-9, (at - flows_.admitted[f]).to_seconds());
    tm.goodput_mbit_s.add(flows_.raw_total[f] * 8e-6 / service_s);
  }
}

bool FleetEngine::work_remains() const {
  for (const TenantRun& run : runs_) {
    if (!run.exhausted || !run.pending.empty() || run.in_flight > 0) {
      return true;
    }
  }
  return false;
}

void FleetEngine::epoch_tick(SimTime now) {
  ++metrics_.epochs;
  generate_arrivals(now);
  admit(now);
  recompute_rates(now);
  drain(now, kFleetEpoch);
}

FleetMetrics FleetEngine::run() {
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t) {
    for (int i = 0; i < cfg_.tenants[t].initial_flows; ++i) {
      spawn_flow(static_cast<std::uint16_t>(t), SimTime());
    }
  }
  // Another epoch runs only while work remains and it starts no later
  // than the hard stop.
  for (SimTime now;; now = now + kFleetEpoch) {
    epoch_tick(now);
    if (!work_remains() || now + kFleetEpoch > hard_stop_) break;
  }

  for (const TenantMetrics& tm : metrics_.tenants) {
    metrics_.completion_all_s.merge(tm.completion_s);
    const bool ok = metrics_.goodput_all_mbit_s.merge(tm.goodput_mbit_s);
    (void)ok;  // every histogram has the TenantMetrics layout
    metrics_.flows_total += tm.spawned - tm.rejected;
    metrics_.flows_completed += tm.completed;
  }
  return metrics_;
}

std::string FleetMetrics::to_json() const {
  std::string out;
  out.reserve(1024 + tenants.size() * 1024);
  const auto emit_hist = [&out](const common::Histogram& h) {
    out += "[";
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      appendf(out, "%s%llu", i ? "," : "",
              static_cast<unsigned long long>(h.bucket(i)));
    }
    out += "]";
  };
  const auto emit_sample = [&out](const common::Sample& s) {
    appendf(out,
            "\"completions\":%llu,\"p50_s\":%.6f,\"p99_s\":%.6f,"
            "\"p999_s\":%.6f,\"max_s\":%.6f",
            static_cast<unsigned long long>(s.count()), s.quantile(0.5),
            s.quantile(0.99), s.quantile(0.999), s.max());
  };

  out += "{\"schema\":\"fleet-metrics-v1\",";
  appendf(out,
          "\"flows_total\":%llu,\"flows_completed\":%llu,\"epochs\":%llu,"
          "\"sim_completed_s\":%.6f,",
          static_cast<unsigned long long>(flows_total),
          static_cast<unsigned long long>(flows_completed),
          static_cast<unsigned long long>(epochs), sim_completed_s);
  out += "\"aggregate\":{";
  emit_sample(completion_all_s);
  out += ",\"goodput_hist\":";
  emit_hist(goodput_all_mbit_s);
  out += "},\"tenants\":[";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantMetrics& tm = tenants[t];
    if (t) out += ",";
    appendf(out,
            "{\"name\":\"%s\",\"spawned\":%llu,\"admitted\":%llu,"
            "\"rejected\":%llu,\"completed\":%llu,\"queue_wait_s\":%.6f,"
            "\"raw_bytes\":%.0f,\"wire_bytes\":%.0f,\"cpu_s\":%.6f,",
            tm.name.c_str(), static_cast<unsigned long long>(tm.spawned),
            static_cast<unsigned long long>(tm.admitted),
            static_cast<unsigned long long>(tm.rejected),
            static_cast<unsigned long long>(tm.completed),
            tm.queue_wait_s_total, tm.raw_bytes, tm.wire_bytes, tm.cpu_s);
    out += "\"raw_bytes_per_level\":[";
    for (std::size_t l = 0; l < tm.raw_bytes_per_level.size(); ++l) {
      appendf(out, "%s%.0f", l ? "," : "", tm.raw_bytes_per_level[l]);
    }
    out += "],";
    emit_sample(tm.completion_s);
    out += ",\"goodput_hist\":";
    emit_hist(tm.goodput_mbit_s);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace strato::vsim
