// Fleet-scale acceptance bench: ~1M multi-tenant adaptive-compression
// flows over a rack -> spine -> WAN fabric, deterministic per seed.
// Emits one JSON object on stdout and mirrors it to the file named by
// argv[1] (the committed BENCH_fleet.json trajectory, gated by
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
//     per-tenant flow counts are det fields and must reproduce exactly
//     between runs; `kflows_per_s` is a timing field (bench_json.h).
//   * `peak_rss_mib` (getrusage ru_maxrss) and `flow_rows` (FlowTable
//     rows written) are info fields: the engine's memory follows the
//     flows queued and in flight, not the flows spawned.
//   * the engine's and the allocator's work counters (FleetEngine::work)
//     are det fields: the run is single-threaded and seeded, so a change
//     in the work an epoch does shows exactly, on any host. `cpu_s`, the
//     process CPU time over the run, is an info field beside `wall_s`.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>

#include "bench_json.h"
#include "vsim/fleet.h"
#include "vsim/topology.h"

namespace {

using strato::bench::JsonWriter;
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

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
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
  const double cpu_start = process_cpu_s();
  const FleetMetrics m = engine.run();
  const double cpu_s = process_cpu_s() - cpu_start;
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();
  const std::string metrics_json = m.to_json();

  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(fnv1a(metrics_json)));

  JsonWriter out("fleet_scale");
  out.det("seed", cfg.seed);
  out.det("epoch_ms", kFleetEpoch.to_seconds() * 1e3, 0);
  out.det("flows_target", flows_target);
  out.info("hardware_concurrency", std::thread::hardware_concurrency());
  out.det("flows_total", m.flows_total);
  out.det("flows_completed", m.flows_completed);
  out.det("epochs", m.epochs);
  out.det("sim_completed_s", m.sim_completed_s, 3);
  out.det("p50_s", m.completion_all_s.quantile(0.5), 6);
  out.det("p99_s", m.completion_all_s.quantile(0.99), 6);
  out.det("p999_s", m.completion_all_s.quantile(0.999), 6);
  out.det("metrics_digest", digest);
  const strato::vsim::FleetWork work = engine.work();
  out.det("alloc_fills", work.alloc.fills);
  out.det("alloc_fills_skipped", work.alloc.fills_skipped);
  out.det("alloc_rounds", work.alloc.rounds);
  out.det("alloc_last_rounds", work.alloc.last_rounds);
  out.det("alloc_links_scanned", work.alloc.links_scanned);
  out.det("alloc_path_link_updates", work.alloc.path_link_updates);
  out.det("alloc_links_refolded", work.alloc.links_refolded);
  out.det("alloc_members_folded", work.alloc.members_folded);
  out.det("admissions", work.admissions);
  out.det("reweights", work.reweights);
  out.det("flow_epochs", work.flow_epochs);
  out.det("windows_closed", work.windows_closed);
  out.det("level_changes", work.level_changes);
  out.info("wall_s", wall_s, 3);
  out.info("cpu_s", cpu_s, 3);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.info("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, 1);
  out.info("flow_rows", static_cast<std::uint64_t>(engine.flow_rows()));
  out.timing("kflows_per_s",
             static_cast<double>(m.flows_completed) / 1e3 /
                 (wall_s > 0.0 ? wall_s : 1.0),
             1);
  for (const auto& tm : m.tenants) {
    out.row();
    out.det("name", tm.name);
    out.det("spawned", tm.spawned);
    out.det("admitted", tm.admitted);
    out.det("rejected", tm.rejected);
    out.det("completed", tm.completed);
    out.det("p99_s", tm.completion_s.quantile(0.99), 6);
  }

  const int rc = out.write(argc, argv);
  if (wall_s > kWallBudgetS) {
    std::fprintf(stderr,
                 "fleet_scale: wall %.1f s exceeds the %.0f s budget\n",
                 wall_s, kWallBudgetS);
    return 1;
  }
  return rc;
}
