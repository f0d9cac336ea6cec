// Fleet-scale acceptance bench: ~1M multi-tenant adaptive-compression
// flows over a rack -> spine -> WAN fabric, deterministic per seed.
// Emits one JSON object on stdout and mirrors it to the file named by
// argv[1] (the committed BENCH_fleet.json trajectory — see
// scripts/check_bench.sh).
//
// Env knob (it changes `flows_total`, so a mismatched comparison is
// loud, not silent):
//   * STRATO_FLEET_FLOWS: total transfer-flow target. Unset = 1,000,000.
//     The special value 100000 selects the legacy pre-incremental-
//     allocator configuration verbatim (digest 90d1a3b0a8e978bf) — the
//     compat anchor proving the rewrite left the simulation bit-exact.
//     Any other value scales the 1M shape (flow_limit = N/4 per tenant).
//
// Acceptance targets:
//   * the run completes within kWallBudgetS (60 s) of wall clock on one
//     core — incremental max-min allocation and cached epoch kernels
//     exist to make this cheap;
//   * `metrics_digest` (FNV-1a over the full FleetMetrics JSON) and the
//     per-tenant flow counts are deterministic and must reproduce
//     exactly between runs; `wall_s` / `kflows_per_s` carry the usual
//     tolerance band plus an upward floor (BENCH_MIN_GAIN), gated on
//     hardware_concurrency.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_json.h"
#include "vsim/fleet.h"
#include "vsim/topology.h"

namespace {

using strato::bench::appendf;
using strato::common::SimTime;
using strato::vsim::BgTrafficConfig;
using strato::vsim::FleetConfig;
using strato::vsim::FleetEngine;
using strato::vsim::FleetMetrics;
using strato::vsim::kFleetEpoch;
using strato::vsim::ShareMode;
using strato::vsim::TenantPolicy;
using strato::vsim::TenantSpec;
using strato::vsim::Topology;

constexpr double kWallBudgetS = 60.0;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TenantSpec transfer_tenant(const char* name, double weight,
                           TenantPolicy policy, std::array<double, 3> mix,
                           double arrival_per_s, std::uint64_t flow_limit,
                           int max_in_flight) {
  TenantSpec t;
  t.name = name;
  t.weight = weight;
  t.share = ShareMode::kPerTenant;
  t.policy = policy;
  t.arrival_per_s = arrival_per_s;
  t.flow_limit = flow_limit;
  t.max_in_flight = max_in_flight;
  t.mean_flow_bytes = 16ull << 20;
  t.min_flow_bytes = 1ull << 20;
  t.class_mix = mix;
  t.wan_fraction = 0.5;
  return t;
}

/// The pre-incremental-allocator bench configuration, kept verbatim: the
/// run's digest (90d1a3b0a8e978bf for seed 424242) was produced by the
/// full-rebuild engine before this optimization existed, so reproducing
/// it here proves end-to-end bit-exactness of the incremental path.
FleetConfig fleet_compat_100k() {
  FleetConfig cfg;
  cfg.topology = Topology::rack_spine_wan(Topology::FleetShape{});
  cfg.seed = 424242;
  cfg.horizon = SimTime::seconds(600);
  cfg.expected_flows = 100'000;

  cfg.tenants.push_back(transfer_tenant("analytics", 2.0,
                                        TenantPolicy::dynamic(),
                                        {1.0, 0.0, 0.0}, 41.0, 24'500, 1500));
  cfg.tenants.push_back(transfer_tenant("web-logs", 1.0,
                                        TenantPolicy::dynamic(),
                                        {0.2, 0.6, 0.2}, 41.0, 24'500, 1500));
  cfg.tenants.push_back(transfer_tenant("backup", 1.0, TenantPolicy::fixed(1),
                                        {0.5, 0.5, 0.0}, 41.0, 24'500, 1500));
  cfg.tenants.push_back(transfer_tenant("media", 1.0, TenantPolicy::fixed(0),
                                        {0.0, 0.0, 1.0}, 41.0, 24'500, 1500));

  BgTrafficConfig bg;
  bg.arrival_per_s = 4.0;
  bg.mean_holding_s = 30.0;
  bg.initial_flows = 64;
  bg.max_flows = 512;
  TenantSpec bgt = strato::vsim::background_tenant(bg);
  bgt.flow_limit = 2'000;
  cfg.tenants.push_back(bgt);
  return cfg;
}

/// Million-flow shape. The fleet is deliberately overloaded (arrivals
/// outpace the spine), so each tenant's in-flight count pins at
/// max_in_flight and completion is capacity-bound: lowering the
/// admission cap shrinks the per-epoch active set — and with it epoch
/// cost — without reducing completion throughput. The steady pinned
/// counts are also what lets the engine skip the kPerTenant reweight
/// (and the allocator the refold) on most epochs.
FleetConfig fleet_large(std::uint64_t transfer_flows) {
  FleetConfig cfg;
  cfg.topology = Topology::rack_spine_wan(Topology::FleetShape{});
  cfg.seed = 424242;
  cfg.horizon = SimTime::seconds(600);
  cfg.drain_factor = 20.0;  // capacity-bound drain runs long past arrivals
  cfg.expected_flows = transfer_flows + transfer_flows / 16 + 1024;

  const std::uint64_t per_tenant = transfer_flows / 4;
  // Arrivals complete within the horizon (~566 s at the 1M default);
  // everything beyond the in-flight cap queues unbounded.
  const double arrival =
      static_cast<double>(per_tenant) / (cfg.horizon.to_seconds() * 0.94);
  cfg.tenants.push_back(transfer_tenant("analytics", 2.0,
                                        TenantPolicy::dynamic(),
                                        {1.0, 0.0, 0.0}, arrival, per_tenant,
                                        500));
  cfg.tenants.push_back(transfer_tenant("web-logs", 1.0,
                                        TenantPolicy::dynamic(),
                                        {0.2, 0.6, 0.2}, arrival, per_tenant,
                                        500));
  cfg.tenants.push_back(transfer_tenant("backup", 1.0, TenantPolicy::fixed(1),
                                        {0.5, 0.5, 0.0}, arrival, per_tenant,
                                        500));
  cfg.tenants.push_back(transfer_tenant("media", 1.0, TenantPolicy::fixed(0),
                                        {0.0, 0.0, 1.0}, arrival, per_tenant,
                                        500));

  BgTrafficConfig bg;
  bg.arrival_per_s = 4.0;
  bg.mean_holding_s = 30.0;
  bg.initial_flows = 64;
  bg.max_flows = 512;
  TenantSpec bgt = strato::vsim::background_tenant(bg);
  bgt.flow_limit = transfer_flows / 50;
  cfg.tenants.push_back(bgt);
  return cfg;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return std::strtoull(v, nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t flows_target =
      env_u64("STRATO_FLEET_FLOWS", 1'000'000);
  const FleetConfig cfg = flows_target == 100'000
                              ? fleet_compat_100k()
                              : fleet_large(flows_target);
  FleetEngine engine(cfg);

  const auto start = std::chrono::steady_clock::now();
  const FleetMetrics m = engine.run();
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();
  const std::string metrics_json = m.to_json();

  std::string json;
  appendf(json, "{\n  \"bench\": \"fleet_scale\",\n");
  appendf(json, "  \"seed\": %llu,\n",
          static_cast<unsigned long long>(cfg.seed));
  appendf(json, "  \"epoch_ms\": %.0f,\n", kFleetEpoch.to_seconds() * 1e3);
  appendf(json, "  \"flows_target\": %llu,\n",
          static_cast<unsigned long long>(flows_target));
  appendf(json, "  \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());
  appendf(json, "  \"flows_total\": %llu,\n",
          static_cast<unsigned long long>(m.flows_total));
  appendf(json, "  \"flows_completed\": %llu,\n",
          static_cast<unsigned long long>(m.flows_completed));
  appendf(json, "  \"epochs\": %llu,\n",
          static_cast<unsigned long long>(m.epochs));
  appendf(json, "  \"sim_completed_s\": %.3f,\n", m.sim_completed_s);
  appendf(json, "  \"p50_s\": %.6f,\n", m.completion_all_s.quantile(0.5));
  appendf(json, "  \"p99_s\": %.6f,\n", m.completion_all_s.quantile(0.99));
  appendf(json, "  \"p999_s\": %.6f,\n", m.completion_all_s.quantile(0.999));
  appendf(json, "  \"metrics_digest\": \"%016llx\",\n",
          static_cast<unsigned long long>(fnv1a(metrics_json)));
  appendf(json, "  \"wall_s\": %.3f,\n", wall_s);
  appendf(json, "  \"kflows_per_s\": %.1f,\n",
          static_cast<double>(m.flows_completed) / 1e3 /
              (wall_s > 0.0 ? wall_s : 1.0));
  appendf(json, "  \"results\": [\n");
  for (std::size_t t = 0; t < m.tenants.size(); ++t) {
    const auto& tm = m.tenants[t];
    appendf(json,
            "    {\"name\": \"%s\", \"spawned\": %llu, \"admitted\": %llu, "
            "\"rejected\": %llu, \"completed\": %llu, \"p99_s\": %.6f}%s\n",
            tm.name.c_str(), static_cast<unsigned long long>(tm.spawned),
            static_cast<unsigned long long>(tm.admitted),
            static_cast<unsigned long long>(tm.rejected),
            static_cast<unsigned long long>(tm.completed),
            tm.completion_s.quantile(0.99),
            t + 1 < m.tenants.size() ? "," : "");
  }
  appendf(json, "  ]\n}\n");

  if (wall_s > kWallBudgetS) {
    std::fprintf(stderr,
                 "fleet_scale: wall %.1f s exceeds the %.0f s budget\n",
                 wall_s, kWallBudgetS);
    strato::bench::write_output(json, argc, argv);
    return 1;
  }
  return strato::bench::write_output(json, argc, argv);
}
