#include "vsim/packet_sim.h"

#include <algorithm>
#include <deque>

#include "common/rng.h"
#include "compress/framing.h"
#include "vsim/codec_model.h"
#include "vsim/event_queue.h"
#include "vsim/link.h"
#include "vsim/profile.h"
#include "vsim/transfer.h"

namespace strato::vsim {

using common::SimTime;

namespace {

constexpr std::size_t kMtu = 1500;

/// One framed block travelling through the pipeline.
struct Block {
  std::uint64_t raw = 0;
  std::uint64_t wire_remaining = 0;
  double decomp_s = 0.0;
};

/// The whole simulation state; methods are the event handlers.
class Sim {
 public:
  Sim(const PacketSimConfig& cfg, core::CompressionPolicy& policy)
      : cfg_(cfg),
        policy_(policy),
        prof_(profile(VirtTech::kKvmPara)),
        fluct_(prof_.net_fluct, cfg.seed),
        rng_(cfg.seed ^ 0x7245F0000000AB01ULL),
        deficit_(static_cast<std::size_t>(cfg.bg_flows) + 1, 0.0) {
    // Identical derivations to the fluid model so per-run biases match.
    const double host_gen = draw_host_generation(rng_);
    cpu_scale_ = prof_.sender_cpu(cfg_.bg_flows, host_gen).scale;
    io_cpu_s_per_byte_ = prof_.net_cpu_s_per_byte / host_gen;
  }

  PacketSimResult run() {
    start_compression();
    res_.events = queue_.run(2'000'000'000ULL);
    res_.completion_s = completion_.to_seconds();
    return res_;
  }

 private:
  // --- compressor stage ----------------------------------------------------
  void start_compression() {
    if (raw_offset_ >= cfg_.total_bytes) return;
    if (send_queue_.size() >= kQueueBlocks) {
      compressor_stalled_ = true;  // resumed when a slot frees
      return;
    }
    const std::uint64_t raw = std::min<std::uint64_t>(
        compress::kDefaultBlockSize, cfg_.total_bytes - raw_offset_);
    raw_offset_ += raw;

    const int level = std::clamp(policy_.level(), 0,
                                 CodecModel::kNumLevels - 1);
    const LevelBehaviour& beh = model_.get(level, cfg_.data);
    const BlockJitter jit = draw_block_jitter(rng_);
    const double ratio = std::min(1.0, beh.ratio * jit.ratio);
    const double wire =
        static_cast<double>(raw) * ratio + compress::kFrameHeaderSize;

    Block block;
    block.raw = raw;
    block.wire_remaining = static_cast<std::uint64_t>(wire);
    block.decomp_s =
        static_cast<double>(raw) / (beh.decompress_bytes_s * jit.speed) +
        wire * io_cpu_s_per_byte_;

    const double comp_s =
        static_cast<double>(raw) /
            (beh.compress_bytes_s * jit.speed * cpu_scale_) +
        wire * io_cpu_s_per_byte_;
    queue_.schedule_in(SimTime::seconds(comp_s), [this, block] {
      on_block_compressed(block);
    });
  }

  void on_block_compressed(const Block& block) {
    res_.raw_bytes += block.raw;
    res_.wire_bytes += block.wire_remaining;
    policy_.on_block(block.raw, queue_.now());
    send_queue_.push_back(block);
    kick_link();
    start_compression();
  }

  // --- shared link (weighted deficit round robin) --------------------------
  bool fg_has_packet() const {
    return !send_queue_.empty() && recv_queue_ < kQueueBlocks;
  }

  std::size_t fg_packet_size() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        kMtu, send_queue_.front().wire_remaining));
  }

  void kick_link() {
    if (link_busy_ || done_) return;
    // Which flows can transmit? Flow 0 = job; 1..k = background (always
    // backlogged while the job runs).
    const std::size_t nflows = deficit_.size();
    bool any = fg_has_packet() || nflows > 1;
    if (!any) return;

    for (std::size_t attempts = 0; attempts < nflows * 64; ++attempts) {
      const std::size_t f = rr_;
      const bool has_pkt = f == 0 ? fg_has_packet() : true;
      if (!has_pkt) {
        deficit_[f] = 0.0;
        rr_ = (rr_ + 1) % nflows;
        continue;
      }
      const std::size_t size = f == 0 ? fg_packet_size() : kMtu;
      if (deficit_[f] >= static_cast<double>(size)) {
        deficit_[f] -= static_cast<double>(size);
        transmit(f, size);
        return;
      }
      deficit_[f] += static_cast<double>(kMtu) *
                     (f == 0 ? 1.0 : kBackgroundFlowWeight);
      rr_ = (rr_ + 1) % nflows;
    }
    // Quantums guarantee progress; reaching here means no flow is
    // eligible (fg blocked on the receiver and no bg flows).
  }

  void transmit(std::size_t flow, std::size_t size) {
    link_busy_ = true;
    const double rate =
        std::max(1.0, prof_.net_bytes_s * fluct_.factor(queue_.now()));
    queue_.schedule_in(
        SimTime::seconds(static_cast<double>(size) / rate),
        [this, flow, size] { on_tx_done(flow, size); });
  }

  void on_tx_done(std::size_t flow, std::size_t size) {
    link_busy_ = false;
    if (flow == 0) {
      ++res_.fg_packets;
      Block& block = send_queue_.front();
      block.wire_remaining -= size;
      if (block.wire_remaining == 0) {
        // Block fully on the wire: hand to the receiver, free the slot.
        deliver(block);
        send_queue_.pop_front();
        if (compressor_stalled_) {
          compressor_stalled_ = false;
          start_compression();
        }
      }
    } else {
      ++res_.bg_packets;
    }
    kick_link();
  }

  // --- receiver stage --------------------------------------------------------
  void deliver(const Block& block) {
    ++recv_queue_;
    pending_decomp_.push_back(block);
    if (!receiver_busy_) start_decompression();
  }

  void start_decompression() {
    if (pending_decomp_.empty()) return;
    receiver_busy_ = true;
    const Block block = pending_decomp_.front();
    pending_decomp_.pop_front();
    queue_.schedule_in(SimTime::seconds(block.decomp_s), [this, block] {
      receiver_busy_ = false;
      --recv_queue_;
      decomp_bytes_ += block.raw;
      if (decomp_bytes_ >= cfg_.total_bytes) {
        completion_ = queue_.now();
        done_ = true;  // stops the link from serving bg flows forever
        return;
      }
      // Freeing a receive slot may unblock the fg flow at the link.
      kick_link();
      start_decompression();
    });
  }

  PacketSimConfig cfg_;
  core::CompressionPolicy& policy_;
  const VirtProfile& prof_;
  const CodecModel model_ = CodecModel::defaults();
  FluctuationProcess fluct_;
  common::Xoshiro256 rng_;
  EventQueue queue_;

  double cpu_scale_ = 1.0;
  double io_cpu_s_per_byte_ = 0.0;

  std::uint64_t raw_offset_ = 0;
  bool compressor_stalled_ = false;
  std::deque<Block> send_queue_;

  bool link_busy_ = false;
  std::size_t rr_ = 0;
  std::vector<double> deficit_;

  std::size_t recv_queue_ = 0;
  std::deque<Block> pending_decomp_;
  bool receiver_busy_ = false;
  std::uint64_t decomp_bytes_ = 0;

  bool done_ = false;
  SimTime completion_;
  PacketSimResult res_;
};

}  // namespace

PacketSimResult run_packet_transfer(const PacketSimConfig& config,
                                    core::CompressionPolicy& policy) {
  Sim sim(config, policy);
  return sim.run();
}

}  // namespace strato::vsim
