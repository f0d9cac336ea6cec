#include "vsim/transfer.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.h"
#include "common/stats.h"
#include "compress/framing.h"
#include "vsim/topology.h"

namespace strato::vsim {

using common::SimTime;

TransferExperiment::TransferExperiment(TransferConfig config)
    : config_(std::move(config)) {}

namespace {

/// Per-second accumulator for the timeline series.
struct Buckets {
  std::vector<double> app_bytes;
  std::vector<double> wire_bytes;
  std::vector<double> vm_busy_s;
  std::vector<double> host_busy_s;

  static void put(std::vector<double>& v, double t_s, double amount) {
    const auto i = static_cast<std::size_t>(std::max(0.0, t_s));
    if (i >= v.size()) v.resize(i + 1, 0.0);
    v[i] += amount;
  }
};

}  // namespace

TransferResult run_transfer_blocks(const TransferConfig& config,
                                   core::CompressionPolicy& policy,
                                   SimMetricsProvider& metrics) {
  const VirtProfile& prof = profile(config.tech);
  // The paper's single shared NIC is link 0 of the degenerate topology,
  // shared by the job flow (weight 1) and cur_flows background flows
  // (weight kBackgroundFlowWeight each).
  const Topology topo = Topology::single(prof);
  LinkBank link(topo, config.seed);
  if (!config.link_chaos.empty()) link.set_chaos(0, config.link_chaos);
  common::Xoshiro256 rng(config.seed ^ 0x7245F0000000AB01ULL);

  // Host-generation spread (Schad et al., cited in Section V): each run
  // lands on a slightly faster or slower host.
  const double host_gen =
      std::clamp(rng.gaussian(1.0, 0.015), 0.9, 1.1);
  const double io_cpu_s_per_byte = prof.net_cpu_s_per_byte / host_gen;

  // Co-located VMs steal vCPU time from the sender (and are only visible
  // as STEAL where the profile says so). With dynamic background traffic
  // the flow count — and with it steal and link share — changes over time.
  std::optional<BgTrafficProcess> bg_process;
  if (config.bg_traffic.enabled()) {
    bg_process.emplace(config.bg_traffic, config.seed);
  }
  int cur_flows = config.bg_flows;
  double steal = std::min(0.6, prof.steal_per_colocated_vm * cur_flows);
  double cpu_scale = (1.0 - steal) * host_gen;

  const std::size_t qs = std::max<std::size_t>(1, config.send_queue_blocks);
  const std::size_t qr = std::max<std::size_t>(1, config.recv_queue_blocks);
  std::vector<SimTime> link_end_ring(qs);
  std::vector<SimTime> decomp_end_ring(qr);
  const std::size_t kw = std::max<std::size_t>(1, config.recv_workers);
  std::vector<SimTime> recv_worker_free(kw);

  SimTime comp_end_prev, link_end_prev, decomp_end_prev;
  TransferResult res;
  res.blocks_per_level.assign(CodecModel::kNumLevels, 0);
  Buckets buckets;

  double cpu_vm_total_s = 0.0;
  double cpu_host_total_s = 0.0;
  double bw_ema = prof.net_bytes_s;  // guest's own throughput estimate
  double displayed_busy_ema = 0.0;

  std::uint64_t raw_offset = 0;
  std::uint64_t block_index = 0;
  while (raw_offset < config.total_bytes) {
    const std::uint64_t raw = std::min<std::uint64_t>(
        config.block_size, config.total_bytes - raw_offset);

    // Which corpus class is the application writing right now? Either a
    // schedule trace (repeating cyclically) or the fixed class.
    const corpus::Compressibility cls =
        config.schedule.empty() ? config.data
                                : corpus::class_at(config.schedule, raw_offset);

    if (bg_process) {
      const int flows = bg_process->flows_at(comp_end_prev);
      if (flows != cur_flows) {
        cur_flows = flows;
        steal = std::min(0.6, prof.steal_per_colocated_vm * flows);
        cpu_scale = (1.0 - steal) * host_gen;
      }
    }

    const int level = std::clamp(policy.level(), 0,
                                 CodecModel::kNumLevels - 1);
    const LevelBehaviour& beh = config.model.get(level, cls);

    // Real blocks differ slightly; jitter ratio and speed per block.
    const double jr =
        std::clamp(rng.gaussian(1.0, config.ratio_jitter), 0.8, 1.2);
    const double js =
        std::clamp(rng.gaussian(1.0, config.speed_jitter), 0.7, 1.3);
    const double ratio = std::min(1.0, beh.ratio * jr);
    const double wire =
        static_cast<double>(raw) * ratio + compress::kFrameHeaderSize;

    // --- sender CPU stage --------------------------------------------------
    const double comp_speed =
        beh.compress_bytes_s * config.codec_speed_factor;
    const double comp_cpu_s =
        static_cast<double>(raw) / (comp_speed * js * cpu_scale);
    const double io_cpu_s = wire * io_cpu_s_per_byte;
    const SimTime cpu_time = SimTime::seconds(comp_cpu_s + io_cpu_s);
    const SimTime comp_start =
        std::max(comp_end_prev, link_end_ring[block_index % qs]);
    const SimTime comp_end = comp_start + cpu_time;

    // --- link stage ----------------------------------------------------
    const SimTime link_start = std::max(
        {comp_end, link_end_prev, decomp_end_ring[block_index % qr]});
    const double rate = std::max(
        1.0, link.capacity(0, link_start) /
                 (1.0 + kBackgroundFlowWeight * std::max(0, cur_flows)));
    const SimTime link_end = link_start + SimTime::seconds(wire / rate);

    // --- receiver CPU stage ----------------------------------------------
    // k-server decode: the block starts when it has arrived AND the
    // least-loaded worker is free; delivery (decomp_end) is re-sequenced
    // into arrival order like the real decode pipeline. With one worker
    // the min element IS decomp_end_prev, so this is exactly the paper's
    // serial recurrence.
    auto free_at =
        std::min_element(recv_worker_free.begin(), recv_worker_free.end());
    const SimTime decomp_start = std::max(link_end, *free_at);
    const double decomp_cpu_s =
        static_cast<double>(raw) /
            (beh.decompress_bytes_s * config.codec_speed_factor * js) +
        wire * io_cpu_s_per_byte;
    const SimTime decomp_finish =
        decomp_start + SimTime::seconds(decomp_cpu_s);
    *free_at = decomp_finish;
    const SimTime decomp_end = std::max(decomp_finish, decomp_end_prev);

    // --- bookkeeping -----------------------------------------------------
    link_end_ring[block_index % qs] = link_end;
    decomp_end_ring[block_index % qr] = decomp_end;
    comp_end_prev = comp_end;
    link_end_prev = link_end;
    decomp_end_prev = decomp_end;

    res.raw_bytes += raw;
    res.wire_bytes += static_cast<std::uint64_t>(wire);
    ++res.blocks_per_level[static_cast<std::size_t>(level)];

    cpu_vm_total_s += comp_cpu_s + io_cpu_s * prof.net_cpu_visibility;
    cpu_host_total_s += comp_cpu_s + io_cpu_s;

    if (config.record_timeline) {
      const double t = comp_end.to_seconds();
      Buckets::put(buckets.app_bytes, t, static_cast<double>(raw));
      Buckets::put(buckets.wire_bytes, link_end.to_seconds(), wire);
      double vm_busy = comp_cpu_s + io_cpu_s * prof.net_cpu_visibility;
      if (prof.steal_displayed) {
        vm_busy += steal * (comp_cpu_s + io_cpu_s);
      }
      Buckets::put(buckets.vm_busy_s, t, vm_busy);
      Buckets::put(buckets.host_busy_s, t,
                   (comp_cpu_s + io_cpu_s) * (1.0 + steal));
      res.timeline.record("level", comp_start, level);
    }

    // Guest-side displayed metrics for the metric-driven baseline: its own
    // recent throughput and the (under-reported) CPU busy fraction.
    const double span_s =
        std::max(1e-9, (link_end - comp_start).to_seconds());
    const double inst_bw = wire / span_s;
    bw_ema += 0.05 * (inst_bw - bw_ema);
    const double inst_busy = std::min(
        1.0, (comp_cpu_s + io_cpu_s * prof.net_cpu_visibility) /
                 std::max(1e-9, cpu_time.to_seconds()));
    displayed_busy_ema += 0.05 * (inst_busy - displayed_busy_ema);
    metrics.update(displayed_busy_ema, bw_ema);

    // The application handed `raw` bytes to the compression module; this
    // is the data-rate signal the paper's controller runs on.
    policy.on_block(raw, comp_end);

    raw_offset += raw;
    ++block_index;
  }

  res.completion_s = decomp_end_prev.to_seconds();
  const double dur = std::max(1e-9, res.completion_s);
  res.mean_vm_cpu_busy =
      std::min(1.0, cpu_vm_total_s / dur) +
      (prof.steal_displayed ? steal * std::min(1.0, cpu_host_total_s / dur)
                            : 0.0);
  res.mean_host_cpu_busy = std::min(1.0, cpu_host_total_s / dur) * (1 + steal);

  if (config.record_timeline) {
    const auto emit = [&](const char* name, const std::vector<double>& v,
                          double scale) {
      for (std::size_t s = 0; s < v.size(); ++s) {
        res.timeline.record(name, SimTime::seconds(static_cast<double>(s)),
                            v[s] * scale);
      }
    };
    emit("app_mbit_s", buckets.app_bytes, 8e-6);
    emit("net_mbit_s", buckets.wire_bytes, 8e-6);
    emit("cpu_busy_vm", buckets.vm_busy_s, 100.0);    // percent
    emit("cpu_busy_host", buckets.host_busy_s, 100.0);
  }
  return res;
}

TransferResult TransferExperiment::run(core::CompressionPolicy& policy) {
  return run_transfer_blocks(config_, policy, metrics_);
}

RepeatedResult run_repeated(
    const TransferConfig& base, int reps,
    const std::function<std::unique_ptr<core::CompressionPolicy>(
        TransferExperiment&)>& make_policy) {
  common::RunningStats stats;
  for (int r = 0; r < reps; ++r) {
    TransferConfig cfg = base;
    cfg.seed = base.seed + static_cast<std::uint64_t>(r) * 7919;
    TransferExperiment exp(cfg);
    auto policy = make_policy(exp);
    stats.add(exp.run(*policy).completion_s);
  }
  return {stats.mean(), stats.stddev()};
}

}  // namespace strato::vsim
