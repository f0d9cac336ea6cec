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

TransferResult TransferExperiment::run(core::CompressionPolicy& policy) {
  const VirtProfile& prof = profile(config_.tech);
  // The paper's single shared NIC is link 0 of the degenerate topology,
  // shared by the job flow (weight 1) and cur_flows background flows
  // (weight kBackgroundFlowWeight each).
  const Topology topo = Topology::single(prof);
  LinkBank link(topo, config_.seed);
  if (!config_.link_chaos.empty()) link.set_chaos(0, config_.link_chaos);
  common::Xoshiro256 rng(config_.seed ^ 0x7245F0000000AB01ULL);

  const double host_gen = draw_host_generation(rng);
  const double io_cpu_s_per_byte = prof.net_cpu_s_per_byte / host_gen;

  // Co-located VMs steal vCPU time from the sender (and are only visible
  // as STEAL where the profile says so). With dynamic background traffic
  // the flow count — and with it steal and link share — changes over time.
  std::optional<BgTrafficProcess> bg_process;
  if (config_.bg_traffic.enabled()) {
    bg_process.emplace(config_.bg_traffic, config_.seed);
  }
  int cur_flows = config_.bg_flows;
  SenderCpu cpu = prof.sender_cpu(cur_flows, host_gen);

  std::vector<SimTime> link_end_ring(kQueueBlocks);
  std::vector<SimTime> decomp_end_ring(kQueueBlocks);

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
  while (raw_offset < config_.total_bytes) {
    const std::uint64_t raw = std::min<std::uint64_t>(
        compress::kDefaultBlockSize, config_.total_bytes - raw_offset);

    // Which corpus class is the application writing right now? Either a
    // schedule trace (repeating cyclically) or the fixed class.
    const corpus::Compressibility cls =
        config_.schedule.empty()
            ? config_.data
            : corpus::class_at(config_.schedule, raw_offset);

    if (bg_process) {
      const int flows = bg_process->flows_at(comp_end_prev);
      if (flows != cur_flows) {
        cur_flows = flows;
        cpu = prof.sender_cpu(flows, host_gen);
      }
    }

    const int level = std::clamp(policy.level(), 0,
                                 CodecModel::kNumLevels - 1);
    const LevelBehaviour& beh = config_.model.get(level, cls);

    // Real blocks differ slightly; jitter ratio and speed per block.
    const BlockJitter jit = draw_block_jitter(rng);
    const double ratio = std::min(1.0, beh.ratio * jit.ratio);
    const double wire =
        static_cast<double>(raw) * ratio + compress::kFrameHeaderSize;

    // --- sender CPU stage --------------------------------------------------
    const double comp_speed =
        beh.compress_bytes_s * config_.codec_speed_factor;
    const double comp_cpu_s =
        static_cast<double>(raw) / (comp_speed * jit.speed * cpu.scale);
    const double io_cpu_s = wire * io_cpu_s_per_byte;
    const SimTime cpu_time = SimTime::seconds(comp_cpu_s + io_cpu_s);
    const SimTime comp_start =
        std::max(comp_end_prev, link_end_ring[block_index % kQueueBlocks]);
    const SimTime comp_end = comp_start + cpu_time;

    // --- link stage ----------------------------------------------------
    const SimTime link_start =
        std::max({comp_end, link_end_prev,
                  decomp_end_ring[block_index % kQueueBlocks]});
    const double rate = std::max(
        1.0, link.capacity(0, link_start) /
                 (1.0 + kBackgroundFlowWeight * std::max(0, cur_flows)));
    const SimTime link_end = link_start + SimTime::seconds(wire / rate);

    // --- receiver CPU stage ----------------------------------------------
    // One serial decoder: the block starts when it has arrived and the
    // previous block is delivered.
    const double decomp_cpu_s =
        static_cast<double>(raw) /
            (beh.decompress_bytes_s * config_.codec_speed_factor * jit.speed) +
        wire * io_cpu_s_per_byte;
    const SimTime decomp_end = std::max(link_end, decomp_end_prev) +
                               SimTime::seconds(decomp_cpu_s);

    // --- bookkeeping -----------------------------------------------------
    link_end_ring[block_index % kQueueBlocks] = link_end;
    decomp_end_ring[block_index % kQueueBlocks] = decomp_end;
    comp_end_prev = comp_end;
    link_end_prev = link_end;
    decomp_end_prev = decomp_end;

    res.raw_bytes += raw;
    res.wire_bytes += static_cast<std::uint64_t>(wire);
    ++res.blocks_per_level[static_cast<std::size_t>(level)];

    cpu_vm_total_s += comp_cpu_s + io_cpu_s * prof.net_cpu_visibility;
    cpu_host_total_s += comp_cpu_s + io_cpu_s;

    if (config_.record_timeline) {
      const double t = comp_end.to_seconds();
      Buckets::put(buckets.app_bytes, t, static_cast<double>(raw));
      Buckets::put(buckets.wire_bytes, link_end.to_seconds(), wire);
      double vm_busy = comp_cpu_s + io_cpu_s * prof.net_cpu_visibility;
      if (prof.steal_displayed) {
        vm_busy += cpu.steal * (comp_cpu_s + io_cpu_s);
      }
      Buckets::put(buckets.vm_busy_s, t, vm_busy);
      Buckets::put(buckets.host_busy_s, t,
                   (comp_cpu_s + io_cpu_s) * (1.0 + cpu.steal));
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
    metrics_.update(displayed_busy_ema, bw_ema);

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
      (prof.steal_displayed ? cpu.steal * std::min(1.0, cpu_host_total_s / dur)
                            : 0.0);
  res.mean_host_cpu_busy =
      std::min(1.0, cpu_host_total_s / dur) * (1 + cpu.steal);

  if (config_.record_timeline) {
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
