// Packet-level transfer simulation — cross-validation of the fluid model.
//
// TransferExperiment models the shared link as a weighted fluid share.
// This module simulates the same experiment on the KVM-para profile at
// packet granularity on the DES kernel: the job's framed blocks are cut
// into 1500-byte packets that compete with explicit background flows
// (weight kBackgroundFlowWeight) under weighted deficit round-robin at
// the NIC; compression/decompression are timed stages over
// CodecModel::defaults() with the same kQueueBlocks-deep queues. If the
// fluid recurrence is a faithful abstraction, both models must agree on
// completion times — that agreement is asserted by
// tests/vsim_packet_sim_test.cc and reported by bench_model_validation.
#pragma once

#include <cstdint>

#include "core/policy.h"
#include "corpus/generator.h"

namespace strato::vsim {

/// Parameters (the fluid TransferConfig's fields of the same name).
struct PacketSimConfig {
  corpus::Compressibility data = corpus::Compressibility::kHigh;
  int bg_flows = 0;
  std::uint64_t total_bytes = 1'000'000'000ULL;
  std::uint64_t seed = 1;
};

struct PacketSimResult {
  double completion_s = 0.0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;       ///< foreground bytes on the wire
  std::uint64_t fg_packets = 0;
  std::uint64_t bg_packets = 0;
  std::uint64_t events = 0;           ///< DES events processed
};

/// Run the packet-granularity job to completion under `policy`.
PacketSimResult run_packet_transfer(const PacketSimConfig& config,
                                    core::CompressionPolicy& policy);

}  // namespace strato::vsim
