// The paper's transfer experiment (Section IV) in virtual time.
//
// A sender task streams `total_bytes` of a chosen corpus through the
// adaptive compression module into a TCP channel shared with k background
// flows; a receiver task decompresses. The simulation advances block by
// block (128 KB, like Nephele's channel buffers) through a three-stage
// pipeline with bounded queues:
//
//   sender CPU (compress + I/O handling, 1 vCPU, minus steal)
//     -> shared link (weighted share, fluctuating capacity)
//       -> receiver CPU (decompress + I/O handling)
//
// Per block i (Q = queue bounds):
//   comp_start[i] = max(comp_end[i-1], link_end[i-Qs])
//   comp_end[i]   = comp_start[i] + cpu_time(i)
//   link_start[i] = max(comp_end[i], link_end[i-1], decomp_end[i-Qr])
//   link_end[i]   = link_start[i] + wire_bytes(i) / fg_rate(link_start[i])
//   decomp_end[i] = max(link_end[i], decomp_end[i-1]) + decomp_time(i)
//
// With recv_workers = k > 1 the receiver stage becomes a k-server queue
// (block i starts when it has arrived and the least-loaded worker frees
// up; delivery is re-sequenced in order, mirroring the real
// ParallelBlockDecodePipeline); k = 1 reduces to the recurrence above.
//
// The policy under test is driven exactly as on the real transport: its
// level is read at comp_start and on_block(raw, comp_end) feeds the rate
// meter, so backpressure from any stage shows up in the application data
// rate — the paper's sole decision signal. A 9000-second HEAVY run
// (Table II) completes in a few milliseconds of wall time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/baselines.h"
#include "core/policy.h"
#include "corpus/schedule.h"
#include "metrics/timeseries.h"
#include "vsim/bgtraffic.h"
#include "vsim/codec_model.h"
#include "vsim/link.h"
#include "vsim/profile.h"

namespace strato::vsim {

/// Experiment parameters (defaults = the paper's setup).
struct TransferConfig {
  VirtTech tech = VirtTech::kKvmPara;  ///< the paper evaluates on KVM-para
  corpus::Compressibility data = corpus::Compressibility::kHigh;
  /// Fig. 6 workload: when segment_bytes > 0, alternate between `data`
  /// and `data_b` every segment_bytes of raw data.
  corpus::Compressibility data_b = corpus::Compressibility::kLow;
  std::uint64_t segment_bytes = 0;
  /// Generalized workload trace (corpus/schedule.h); overrides `data` and
  /// the segment fields when non-empty. Repeats cyclically.
  std::vector<corpus::Segment> schedule;
  int bg_flows = 0;                     ///< co-located TCP connections
  /// Time-varying background traffic (overrides bg_flows when enabled):
  /// deterministic steps or a Poisson/exponential birth-death process.
  BgTrafficConfig bg_traffic;
  std::uint64_t total_bytes = 50'000'000'000ULL;  ///< the paper's 50 GB
  std::size_t block_size = 128 * 1024;
  std::uint64_t seed = 1;
  /// Per-block multiplicative jitter of ratio / speeds (real blocks are
  /// not identical).
  double ratio_jitter = 0.01;
  double speed_jitter = 0.04;
  std::size_t send_queue_blocks = 8;
  std::size_t recv_queue_blocks = 8;
  /// Receive-side decode workers (the DecompressingReader analogue): blocks
  /// start decompressing when they have arrived AND a worker is free;
  /// delivery stays in arrival order. 1 reproduces the paper's serial
  /// receiver exactly (the recurrence below is unchanged).
  std::size_t recv_workers = 1;
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

/// The per-block recurrence of Section IV as a free function: streams
/// config.total_bytes through `policy` and returns the result. This is
/// THE calibrated code path behind Table II; TransferExperiment::run
/// delegates here.
TransferResult run_transfer_blocks(const TransferConfig& config,
                                   core::CompressionPolicy& policy,
                                   SimMetricsProvider& metrics);

/// Runs transfer experiments.
class TransferExperiment {
 public:
  explicit TransferExperiment(TransferConfig config);

  /// Run one job to completion under `policy`.
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
