// Fleet-scale multi-tenant transfer service in virtual time.
//
// The paper's experiment is one foreground job against a handful of
// background flows on one NIC. This engine runs up to millions of
// adaptive-compression flows, thousands of them in flight at once: many
// tenants share a rack -> spine -> WAN Topology, every flow in flight
// carries its own Algorithm 1 controller (embedded POD in the
// FlowTable), link shares are weighted max-min across tenants, and
// admission control bounds each tenant's in-flight flow count.
//
// Advancement is *batched*: instead of one event per flow step, run()
// steps a plain loop over epoch times (kFleetEpoch = 50 ms of virtual
// time). Each epoch it
//
//   1. materializes newly arrived flows (per-tenant Poisson processes,
//      drawn lazily — no per-arrival events) as spawn records in their
//      tenant's queue (rejecting beyond the queue bound),
//   2. admits queued flows FIFO up to each tenant's in-flight cap,
//      writing each into a FlowTable row,
//   3. recomputes every link's fluctuating capacity and all flow rates in
//      one incremental weighted max-min pass (MaxMinAllocator),
//   4. drains bytes in one walk over the flows in flight: clamps each
//      flow's share by its sender-CPU compression-throughput bound,
//      charges CPU on the KVM-para profile, closes kFleetWindow-long
//      controller decision windows (application-data-rate only, exactly
//      the paper's signal), retires finished flows into FleetMetrics and
//      drops them from the active lists.
//
// Memory follows the flows queued and in flight: a queued flow is a
// 40-byte QueuedFlow, a row lives from admission to finish, and a
// finished row is reused by an admission after the next allocation's
// refold (DESIGN §15), so the table holds at most 2 × Σ max_in_flight
// rows when every tenant caps its in-flight count.
//
// Determinism: everything derives from FleetConfig::seed; two runs emit
// byte-identical FleetMetrics JSON. A 100k-flow day takes seconds of
// wall clock (see bench_fleet_scale).
//
// The degenerate case — one transfer on a single link — is not a fleet
// run: TransferExperiment::run (transfer.h) executes the calibrated
// per-block recurrence behind Table II. On the single-link topology this
// engine's max-min shares reproduce that recurrence's contention formula
// (vsim_fleet_test).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "core/controller.h"
#include "vsim/bgtraffic.h"
#include "vsim/codec_model.h"
#include "vsim/flow_table.h"
#include "vsim/link.h"
#include "vsim/profile.h"
#include "vsim/topology.h"

namespace strato::vsim {

/// Virtual time one epoch of FleetEngine::run advances.
inline constexpr common::SimTime kFleetEpoch = common::SimTime::ms(50);
/// Length of every adaptive flow's decision window (the paper's t).
inline constexpr common::SimTime kFleetWindow = common::SimTime::seconds(2);

/// One transfer flow's progress over one epoch of the drain.
struct EpochAdvance {
  double adv_s;      ///< seconds of the epoch the flow sent for
  double raw_moved;  ///< raw bytes sent
};

/// Advance a flow with `rem` raw bytes left at `raw_rate` bytes/s for up
/// to `dt_s` seconds. Bit-identical to need_s = rem / raw_rate, adv_s =
/// min(need_s, dt_s), raw_moved = min(rem, raw_rate * adv_s), but divides
/// only when the flow can finish: step = fl(raw_rate * dt_s) is within
/// half an ulp of the exact product, so rem > step puts rem above the
/// exact product, rem / raw_rate above dt_s, and its rounding at or above
/// dt_s (DESIGN §15).
inline EpochAdvance epoch_advance(double rem, double raw_rate, double dt_s) {
  const double step = raw_rate * dt_s;
  if (rem > step) return {dt_s, step};
  const double need_s = rem / raw_rate;
  const double adv_s = std::min(need_s, dt_s);
  return {adv_s, std::min(rem, raw_rate * adv_s)};
}

/// Per-tenant compression policy. Static levels model tenants that
/// pinned a level; adaptive runs the paper's Algorithm 1 per flow.
struct TenantPolicy {
  enum class Kind { kStatic, kAdaptive };
  Kind kind = Kind::kAdaptive;
  int static_level = 0;
  core::AdaptiveConfig adaptive;

  static TenantPolicy fixed(int level) {
    TenantPolicy p;
    p.kind = Kind::kStatic;
    p.static_level = level;
    return p;
  }
  static TenantPolicy dynamic() { return TenantPolicy{}; }
};

/// How a tenant's share weight spreads over its flows.
enum class ShareMode {
  /// Every flow carries `weight` individually — a tenant's aggregate
  /// share grows with its flow count. Background traffic uses this with
  /// weight = kBackgroundFlowWeight, reproducing the Table II closed form
  /// capacity / (1 + w_bg * k) on the degenerate topology.
  kPerFlow,
  /// `weight` is the tenant's total: each active flow gets weight /
  /// active_count, so tenants split links by their weights regardless of
  /// how many flows they run — per-tenant weighted fairness.
  kPerTenant,
};

/// One tenant class of the fleet.
struct TenantSpec {
  std::string name = "tenant";
  double weight = 1.0;
  ShareMode share = ShareMode::kPerTenant;
  TenantPolicy policy;
  FlowKind kind = FlowKind::kTransfer;

  // --- arrivals ---------------------------------------------------------
  double arrival_per_s = 1.0;    ///< Poisson flow-arrival rate
  int initial_flows = 0;         ///< spawned at t = 0
  /// Stop generating after this many flows (0 = bounded by the horizon).
  std::uint64_t flow_limit = 0;

  // --- admission control ------------------------------------------------
  int max_in_flight = 0;   ///< concurrent active flows (0 = unlimited)
  std::size_t max_queue = 0;  ///< pending bound; beyond it: rejected (0 = unbounded)

  // --- flow bodies ------------------------------------------------------
  /// Transfer sizes: exponential with this mean, floored at min_flow_bytes
  /// (Gridiron-style heavy-tailed per-workload requirements).
  std::uint64_t mean_flow_bytes = 256ull << 20;
  std::uint64_t min_flow_bytes = 1ull << 20;
  double mean_dwell_s = 60.0;  ///< kDwell holding time (exponential)
  /// Corpus-class mix (HIGH, MODERATE, LOW fractions; normalized).
  std::array<double, 3> class_mix = {1.0, 0.0, 0.0};
  /// Fraction of flows leaving through the WAN egress path.
  double wan_fraction = 0.5;
};

/// The bgtraffic birth-death process as a tenant class: Poisson arrivals,
/// exponential holding, per-flow background weight, capped in-flight
/// count — background contention is no longer a special case.
TenantSpec background_tenant(const BgTrafficConfig& bg,
                             double weight = kBackgroundFlowWeight);

/// Fleet experiment parameters. Codec speeds and ratios come from
/// CodecModel::defaults(), CPU costs from the KVM-para profile, and each
/// transfer flow draws one draw_block_jitter spread at spawn.
struct FleetConfig {
  Topology topology;
  std::vector<TenantSpec> tenants;
  double codec_speed_factor = 1.0;
  /// Arrivals stop at the horizon; the run then drains in-flight flows.
  common::SimTime horizon = common::SimTime::seconds(600);
  /// Safety stop: no epoch runs past horizon * drain_factor.
  double drain_factor = 20.0;
  std::uint64_t seed = 1;
  /// Ignored by the engine: the flow table grows with flows in flight,
  /// not with this budget. Kept because bench/suite's fleet workload
  /// still sets it.
  std::size_t expected_flows = 0;
};

/// Aggregates for one tenant.
struct TenantMetrics {
  std::string name;
  std::uint64_t spawned = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   ///< admission-queue overflow
  std::uint64_t completed = 0;
  double queue_wait_s_total = 0.0;  ///< arrival -> admission
  double raw_bytes = 0.0;
  double wire_bytes = 0.0;
  double cpu_s = 0.0;
  /// Raw bytes sent at each compression level (per-policy totals).
  std::array<double, CodecModel::kNumLevels> raw_bytes_per_level{};
  /// Flow completion times, arrival -> finish (seconds).
  common::Sample completion_s;
  /// Per-flow goodput raw_bytes / service time, Mbit/s; every tenant
  /// and the aggregate share this layout, so they merge.
  common::Histogram goodput_mbit_s{0.0, 1000.0, 50};
};

/// Fleet-wide result surface.
struct FleetMetrics {
  std::vector<TenantMetrics> tenants;
  common::Sample completion_all_s;       ///< all transfer tenants pooled
  common::Histogram goodput_all_mbit_s{0.0, 1000.0, 50};
  std::uint64_t flows_total = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t epochs = 0;
  double sim_completed_s = 0.0;  ///< virtual time at which the fleet drained

  /// Deterministic JSON rendering — byte-identical for identical runs;
  /// the fleet-replay test and BENCH_fleet.json build on this.
  [[nodiscard]] std::string to_json() const;
};

/// Work counters of one FleetEngine run: the allocator's and the
/// engine's own. Like the rows, they stay out of FleetMetrics, whose JSON
/// is digested; a seeded run repeats them exactly.
struct FleetWork {
  AllocatorWork alloc;  ///< MaxMinAllocator::work()
  std::uint64_t admissions = 0;
  std::uint64_t reweights = 0;       ///< kPerTenant weight-rewrite passes
  std::uint64_t flow_epochs = 0;     ///< flows drained, summed over epochs
  std::uint64_t windows_closed = 0;  ///< Algorithm 1 decision windows
  std::uint64_t level_changes = 0;

  bool operator==(const FleetWork&) const = default;
};

/// Runs fleet experiments.
class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig config);

  /// Run the fleet to completion (or the drain-factor safety stop).
  FleetMetrics run();

  [[nodiscard]] const FleetConfig& config() const { return cfg_; }

  /// FlowTable rows written so far (in flight, retired or free). Not a
  /// FleetMetrics field: the metrics JSON is digested.
  [[nodiscard]] std::size_t flow_rows() const { return flows_.size(); }

  /// Work done so far.
  [[nodiscard]] FleetWork work() const {
    FleetWork w = work_;
    w.alloc = alloc_.work();
    return w;
  }

 private:
  /// A queued flow: spawn_flow's draws, kept until admission writes them
  /// into a FlowTable row. A tenant's kind reads one of the two sizes, so
  /// they share one field; `cls` and the jitters stay at their defaults
  /// for kDwell.
  struct QueuedFlow {
    common::SimTime arrival;
    union {
      std::int64_t dwell_ns;        ///< kDwell holding time, nanoseconds
      std::uint64_t raw_bytes = 0;  ///< kTransfer size
    };
    double ratio_jit = 1.0;
    double speed_jit = 1.0;
    std::uint32_t path = 0;
    corpus::Compressibility cls = corpus::Compressibility::kLow;
  };
  static_assert(sizeof(QueuedFlow) == 40);

  /// Per-tenant mutable run state (RNG, arrival clock, admission queue).
  struct TenantRun {
    common::Xoshiro256 rng{0};
    common::SimTime next_arrival = common::SimTime::max();
    std::uint64_t spawned = 0;
    int in_flight = 0;
    std::deque<QueuedFlow> pending;
    bool exhausted = false;  ///< flow_limit reached or horizon passed
  };

  void spawn_flow(std::uint16_t t, common::SimTime at);
  void generate_arrivals(common::SimTime now);
  void admit(common::SimTime now);
  void recompute_rates(common::SimTime now);
  void drain(common::SimTime from, common::SimTime dt);
  /// Re-derive the cached (wf, comp_speed, cpu_bound) triple for one
  /// flow from its current level — at admission and on level switches
  /// only.
  void refresh_flow_kernel(std::uint32_t f);
  void finish_flow(std::uint32_t f, common::SimTime at);
  [[nodiscard]] bool work_remains() const;
  void epoch_tick(common::SimTime now);

  FleetConfig cfg_;
  FlowTable flows_;
  LinkBank bank_;
  MaxMinAllocator alloc_;
  std::vector<TenantRun> runs_;
  /// Active transfer ids per tenant, and active dwell ids, each in
  /// admission order.
  std::vector<std::vector<std::uint32_t>> tenant_transfer_;
  std::vector<std::uint32_t> active_dwell_;
  std::vector<double> link_cap_;
  std::vector<double> link_cap_prev_;  ///< change detection for alloc skip
  std::vector<int> tenant_active_;     ///< persistent per-tenant active count
  std::vector<int> tenant_last_count_; ///< count at the last weight write
  std::vector<double> tenant_flow_w_;  ///< kPerTenant: weight / active count
  std::vector<std::uint8_t> tenant_per_tenant_;  ///< share == kPerTenant
  /// Flat per-(level, class) behaviour copies (CodecModel::get without
  /// the bounds-checked map walk) feeding refresh_flow_kernel.
  std::vector<LevelBehaviour> behaviour_;
  FleetMetrics metrics_;
  FleetWork work_;  ///< engine counters; work() adds the allocator's
  double io_cpu_s_per_byte_ = 0.0;
  common::SimTime hard_stop_;
};

}  // namespace strato::vsim
