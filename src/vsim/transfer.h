// The paper's transfer experiment (Section IV) in virtual time.
//
// A sender task streams `total_bytes` of a chosen corpus through the
// adaptive compression module into a TCP channel shared with k background
// flows; a receiver task decompresses. The simulation advances block by
// block (compress::kDefaultBlockSize = 128 KB, like Nephele's channel
// buffers) through a three-stage pipeline whose queues hold kQueueBlocks
// blocks each:
//
//   sender CPU (compress + I/O handling, 1 vCPU, minus steal)
//     -> shared link (weighted share, fluctuating capacity)
//       -> receiver CPU (decompress + I/O handling)
//
// Per block i (Q = kQueueBlocks):
//   comp_start[i] = max(comp_end[i-1], link_end[i-Q])
//   comp_end[i]   = comp_start[i] + cpu_time(i)
//   link_start[i] = max(comp_end[i], link_end[i-1], decomp_end[i-Q])
//   link_end[i]   = link_start[i] + wire_bytes(i) / fg_rate(link_start[i])
//   decomp_end[i] = max(link_end[i], decomp_end[i-1]) + decomp_time(i)
//
// Each block's ratio and codec speeds carry draw_block_jitter's spread.
// The policy under test is driven exactly as on the real transport: its
// level is read at comp_start and on_block(raw, comp_end) feeds the
// decision window, so backpressure from any stage shows up in the
// application data rate — the paper's sole decision signal. A 9000-second
// HEAVY run (Table II) completes in a few milliseconds of wall time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/chaos.h"
#include "core/baselines.h"
#include "core/policy.h"
#include "corpus/schedule.h"
#include "metrics/timeseries.h"
#include "vsim/bgtraffic.h"
#include "vsim/codec_model.h"
#include "vsim/profile.h"

namespace strato::vsim {

/// Send and receive queue bound, in blocks — shared by this fluid model
/// and the packet model (packet_sim.h).
inline constexpr std::size_t kQueueBlocks = 8;

/// Experiment parameters (defaults = the paper's setup).
struct TransferConfig {
  VirtTech tech = VirtTech::kKvmPara;  ///< the paper evaluates on KVM-para
  corpus::Compressibility data = corpus::Compressibility::kHigh;
  /// Workload trace (corpus/schedule.h); overrides `data` when non-empty.
  /// Repeats cyclically, so Fig. 6's HIGH <-> LOW switch every 10 GB is
  /// the two-segment schedule {{kHigh, 10 GB}, {kLow, 10 GB}}.
  std::vector<corpus::Segment> schedule;
  int bg_flows = 0;                     ///< co-located TCP connections
  /// Time-varying background traffic (overrides bg_flows when enabled):
  /// deterministic steps or a Poisson/exponential birth-death process.
  BgTrafficConfig bg_traffic;
  std::uint64_t total_bytes = 50'000'000'000ULL;  ///< the paper's 50 GB
  std::uint64_t seed = 1;
  /// Record per-second series for the timeline figures.
  bool record_timeline = false;
  CodecModel model = CodecModel::defaults();
  /// Uniform scale on codec speeds. 1.0 = this repository's C++ codecs on
  /// the build machine. The paper's levels ran as Java libraries inside
  /// Nephele on 2008 Xeons — ~0.4 mimics that regime (EXPERIMENTS.md).
  double codec_speed_factor = 1.0;
  /// Scripted link outages (kBlackout events, virtual-time ns) applied to
  /// the shared link — the verify harness's replayable chaos hook.
  common::ChaosSchedule link_chaos;
};

/// Experiment outcome.
struct TransferResult {
  double completion_s = 0.0;       ///< job completion time (paper's metric)
  std::uint64_t raw_bytes = 0;     ///< application bytes moved
  std::uint64_t wire_bytes = 0;    ///< framed bytes on the wire
  std::vector<std::uint64_t> blocks_per_level;
  double mean_vm_cpu_busy = 0.0;   ///< displayed inside the VM
  double mean_host_cpu_busy = 0.0; ///< host-side truth
  /// Series (record_timeline): "app_mbit_s", "net_mbit_s", "level",
  /// "cpu_busy_vm", "cpu_busy_host".
  metrics::TimelineRecorder timeline;
};

/// Metrics as displayed inside the simulated VM — feeds the metric-driven
/// baseline policy with exactly the skewed values a guest would see.
class SimMetricsProvider final : public core::SystemMetricsProvider {
 public:
  [[nodiscard]] double displayed_cpu_idle() const override {
    return 1.0 - displayed_busy_;
  }
  [[nodiscard]] double displayed_bandwidth() const override {
    return displayed_bandwidth_;
  }
  void update(double displayed_busy, double bandwidth_bytes_s) {
    displayed_busy_ = displayed_busy;
    displayed_bandwidth_ = bandwidth_bytes_s;
  }

 private:
  double displayed_busy_ = 0.0;
  double displayed_bandwidth_ = 117e6;
};

/// Runs transfer experiments.
class TransferExperiment {
 public:
  explicit TransferExperiment(TransferConfig config);

  /// Run one job to completion under `policy`: streams total_bytes
  /// through the per-block recurrence of Section IV (file comment) — the
  /// calibrated code path behind Table II.
  TransferResult run(core::CompressionPolicy& policy);

  /// Displayed-metric feed for MetricDrivenPolicy (valid during run()).
  [[nodiscard]] SimMetricsProvider& metrics() { return metrics_; }

  [[nodiscard]] const TransferConfig& config() const { return config_; }

 private:
  TransferConfig config_;
  SimMetricsProvider metrics_;
};

/// Convenience: run `reps` repetitions with distinct seeds under a policy
/// factory; returns completion-time stats.
struct RepeatedResult {
  double mean_s = 0.0;
  double sd_s = 0.0;
};
RepeatedResult run_repeated(
    const TransferConfig& base, int reps,
    const std::function<std::unique_ptr<core::CompressionPolicy>(
        TransferExperiment&)>& make_policy);

}  // namespace strato::vsim
