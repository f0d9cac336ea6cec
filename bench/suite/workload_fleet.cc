// fleet_250k: the bench_fleet_scale fleet shape at 250,000 transfer flows
// per repetition, on one thread. It exercises only vsim (allocator, drain,
// event queue, controller_step); none of the other workloads touch vsim,
// and this one touches no codec or socket.
//
// Every repetition builds a fresh FleetEngine and runs the same seed, so
// all repetitions must produce the same FleetMetrics digest; at the
// default seed that digest is pinned. The metrics are medians over the
// repetitions: one repetition's time moves by up to 20% with the load
// other guests put on the host's shared cache, and the median of five
// moves by a few percent. The million-flow configuration fits only two
// repetitions in a run, which left its spread over 20% (README.md).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "suite.h"
#include "trace.h"
#include "vsim/fleet.h"
#include "vsim/topology.h"

namespace strato::bench_suite {

namespace {

using vsim::FleetConfig;
using vsim::FleetEngine;
using vsim::FleetMetrics;
using vsim::TenantPolicy;
using vsim::TenantSpec;

constexpr std::uint64_t kRepFlows = 250'000;
/// Wall time of one repetition on the reference VM; sizes the work.
constexpr double kRepNominalS = 2.0;
constexpr std::uint64_t kWarmFlows = 10'000;
constexpr double kWarmHorizonS = 30.0;
constexpr std::uint64_t kGoldenSeed = 424242;
constexpr std::uint64_t kGoldenDigest = 0xbedefe75719243ebULL;

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
                           double arrival_per_s, std::uint64_t flow_limit) {
  TenantSpec t;
  t.name = name;
  t.weight = weight;
  t.share = vsim::ShareMode::kPerTenant;
  t.policy = policy;
  t.arrival_per_s = arrival_per_s;
  t.flow_limit = flow_limit;
  t.max_in_flight = 500;
  t.mean_flow_bytes = 16ull << 20;
  t.min_flow_bytes = 1ull << 20;
  t.class_mix = mix;
  t.wan_fraction = 0.5;
  return t;
}

/// The bench_fleet_scale million-flow shape (fleet_large there), scaled to
/// `transfer_flows`: four transfer tenants over an overloaded fabric plus
/// background traffic.
FleetConfig fleet_config(std::uint64_t transfer_flows, std::uint64_t seed,
                         double horizon_s = 600.0) {
  FleetConfig cfg;
  cfg.topology = vsim::Topology::rack_spine_wan(vsim::Topology::FleetShape{});
  cfg.seed = seed;
  cfg.horizon = common::SimTime::seconds(horizon_s);
  cfg.drain_factor = 20.0;
  cfg.expected_flows = transfer_flows + transfer_flows / 16 + 1024;

  const std::uint64_t per_tenant = transfer_flows / 4;
  const double arrival =
      static_cast<double>(per_tenant) / (cfg.horizon.to_seconds() * 0.94);
  cfg.tenants.push_back(transfer_tenant("analytics", 2.0,
                                        TenantPolicy::dynamic(),
                                        {1.0, 0.0, 0.0}, arrival, per_tenant));
  cfg.tenants.push_back(transfer_tenant("web-logs", 1.0,
                                        TenantPolicy::dynamic(),
                                        {0.2, 0.6, 0.2}, arrival, per_tenant));
  cfg.tenants.push_back(transfer_tenant("backup", 1.0, TenantPolicy::fixed(1),
                                        {0.5, 0.5, 0.0}, arrival, per_tenant));
  cfg.tenants.push_back(transfer_tenant("media", 1.0, TenantPolicy::fixed(0),
                                        {0.0, 0.0, 1.0}, arrival, per_tenant));

  vsim::BgTrafficConfig bg;
  bg.arrival_per_s = 4.0;
  bg.mean_holding_s = 30.0;
  bg.initial_flows = 64;
  bg.max_flows = 512;
  TenantSpec bgt = vsim::background_tenant(bg);
  bgt.flow_limit = transfer_flows / 50;
  cfg.tenants.push_back(bgt);
  return cfg;
}

/// Set-up: a small fleet of the same shape run to completion, so the
/// measured repetitions start with warm code and a warm heap, then the
/// measured engine. Building an engine alone takes tens of microseconds of
/// mmap and munmap, whose cost moved by 45% between sets of runs.
struct FleetStack {
  std::unique_ptr<FleetEngine> engine;

  FleetStack(std::uint64_t flows, std::uint64_t seed) {
    FleetEngine(fleet_config(kWarmFlows, seed, kWarmHorizonS)).run();
    engine = std::make_unique<FleetEngine>(fleet_config(flows, seed));
  }
};

/// Simulated payload of a run, bytes.
double simulated_raw(const FleetMetrics& m) {
  double raw = 0.0;
  for (const auto& t : m.tenants) raw += t.raw_bytes;
  return raw;
}

double simulated_wire(const FleetMetrics& m) {
  double wire = 0.0;
  for (const auto& t : m.tenants) wire += t.wire_bytes;
  return wire;
}

/// Invariants of a finished run; returns the flows not completed.
std::uint64_t check_run(const FleetMetrics& m, RunResult& r) {
  std::uint64_t completed = 0;
  for (const auto& t : m.tenants) {
    completed += t.completed;
    if (t.completed != t.admitted) {
      r.fail("tenant " + t.name + ": admitted flows left incomplete");
    }
  }
  if (completed != m.flows_completed) r.fail("tenant completions disagree");
  return m.flows_total - std::min(m.flows_total, m.flows_completed);
}

}  // namespace

RunResult run_fleet(const Options& opt) {
  RunResult r;
  // Runs shorter than one repetition (the smoke test) shrink the fleet.
  const bool full = opt.seconds >= kRepNominalS;
  const std::uint64_t flows =
      full ? kRepFlows
           : std::max<std::uint64_t>(
                 20'000, static_cast<std::uint64_t>(
                             static_cast<double>(kRepFlows) *
                             opt.shrink(kRepNominalS)));
  const auto reps = static_cast<int>(
      std::max(1.0, std::round(opt.seconds / kRepNominalS)));

  Tracer tracer(opt.traced());
  ThreadTrace& tr = tracer.thread("fleet");
  auto st = set_up_repeatedly<FleetStack>(r, opt.setup_budget_s(), flows,
                                          opt.seed);

  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::uint64_t digest = 0;
  FleetMetrics last;
  ProcessWindow window;
  window.start();
  tracer.open_window();
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) {
      auto span = tr.span(kFleetConstruct);
      st->engine.reset();
      st->engine = std::make_unique<FleetEngine>(fleet_config(flows, opt.seed));
    }
    const std::int64_t t = now_ns();
    const double cpu = process_cpu_s();
    {
      auto span = tr.span(kFleetRun);
      last = st->engine->run();
    }
    run_s.push_back(ns_to_s(now_ns() - t));
    cpu_s.push_back(process_cpu_s() - cpu);
    auto span = tr.span(kVerify);
    r.attempted += last.flows_total;
    r.failed += check_run(last, r);
    const std::uint64_t d = fnv1a(last.to_json());
    if (rep > 0 && d != digest) r.fail("repetitions disagree on the digest");
    digest = d;
  }
  tracer.close_window();
  window.stop();

  if (full && opt.seed == kGoldenSeed && digest != kGoldenDigest) {
    r.fail("digest differs from the pinned bedefe75719243eb");
  }
  if (r.failed > 0) r.fail("flows not completed");
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  r.info["vsim.fleet.digest"] = hex;

  // Every repetition simulates the same payload.
  const double gib = simulated_raw(last) / kGiB;
  const double flows_run = static_cast<double>(last.flows_total);
  const double rep_s = median(run_s);
  std::vector<double> run_ms;
  for (const double s : run_s) run_ms.push_back(s * 1e3);
  r.metrics["goodput_mib_s"] = gib * 1024.0 / rep_s;
  r.metrics["latency_p50_ms"] = report_latency(run_ms, r);
  r.metrics["cpu_s_per_gib"] = median(cpu_s) / gib;

  r.layers["vsim.fleet.construct_us_per_flow"] =
      r.metrics["setup_s"] / flows_run * 1e6;
  r.layers["vsim.fleet.run_us_per_flow"] = rep_s / flows_run * 1e6;
  r.layers["vsim.fleet.cpu_us_per_flow"] = median(cpu_s) / flows_run * 1e6;
  r.layers["vsim.fleet.us_per_epoch"] =
      rep_s / static_cast<double>(last.epochs) * 1e6;
  r.layers["vsim.fleet.epochs"] = static_cast<double>(last.epochs);
  r.layers["vsim.fleet.flows_completed"] =
      static_cast<double>(last.flows_completed);
  r.layers["vsim.fleet.sim_completed_s"] = last.sim_completed_s;
  r.layers["vsim.fleet.p99_completion_s"] =
      last.completion_all_s.quantile(0.99);
  r.layers["compress.wire_ratio"] = simulated_wire(last) / simulated_raw(last);
  window.report_switches(r);
  if (tracer.enabled()) {
    r.layers["bench.verify_s_per_gib"] =
        tracer.total_s(kVerify) / (gib * static_cast<double>(reps));
    tracer.report(opt.trace_path, r);
  }
  return r;
}

}  // namespace strato::bench_suite
