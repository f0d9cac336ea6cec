// Structs-of-arrays flow store for the fleet simulator.
//
// The original TransferExperiment keeps one heap object per transfer
// (policy, link, timeline). At fleet scale — 10^5..10^6 concurrent
// flows — that layout dies by pointer chasing and allocator pressure:
// every epoch touches every active flow, so the state an epoch reads
// (phase, remaining bytes, rate, level) must be contiguous. FlowTable
// stores each field as its own parallel vector; a flow is an index, not
// an object. The adaptive controller rides along as embedded POD
// (core::ControllerState, 40 bytes) and its decision window as
// core::DecisionWindow, so one million DYNAMIC flows are two flat arrays
// rather than two million heap objects.
//
// The fleet-alloc lint rule bans `new` / make_unique / make_shared in
// this layer; growth happens only through the column vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "core/controller.h"
#include "corpus/generator.h"

namespace strato::vsim {

/// Flow lifecycle.
enum class FlowPhase : std::uint8_t {
  kPending = 0,  ///< spawned, waiting for admission
  kActive,       ///< admitted, competing for link shares
  kDone,         ///< finished (or rejected before admission)
};

/// What the flow transports.
enum class FlowKind : std::uint8_t {
  kTransfer,  ///< fixed raw byte count through the compression module
  kDwell,     ///< background TCP connection occupying its share for a
              ///< fixed duration (the bgtraffic tenant class)
};

/// Structs-of-arrays store. All columns are index-parallel; FlowTable
/// only guards the invariant that they grow together.
class FlowTable {
 public:
  using Id = std::uint32_t;

  /// Pre-size every column (fleet configs know their flow budget).
  void reserve(std::size_t n);

  /// Append a transfer flow in kPending phase; returns its id.
  Id add_transfer(std::uint16_t tenant, std::uint32_t path,
                  corpus::Compressibility cls, std::uint64_t raw_bytes,
                  double weight, common::SimTime arrival, double ratio_jit,
                  double speed_jit);

  /// Append a dwell (background) flow in kPending phase; returns its id.
  Id add_dwell(std::uint16_t tenant, std::uint32_t path, double weight,
               common::SimTime arrival, common::SimTime dwell);

  [[nodiscard]] std::size_t size() const { return phase.size(); }

  // --- columns (index-parallel; the engine iterates these directly) ----
  std::vector<FlowPhase> phase;
  std::vector<FlowKind> kind;
  std::vector<std::uint16_t> tenant;
  std::vector<corpus::Compressibility> cls;
  std::vector<std::int8_t> level;         ///< current compression level
  std::vector<std::uint32_t> path;        ///< Topology path id
  std::vector<double> weight;             ///< max-min share weight
  std::vector<double> raw_total;          ///< transfer size (raw bytes)
  std::vector<double> raw_remaining;
  std::vector<common::SimTime> dwell_remaining;  ///< kDwell only
  std::vector<common::SimTime> arrival;
  std::vector<common::SimTime> admitted;
  std::vector<common::SimTime> finished;
  std::vector<double> rate;               ///< allocated wire bytes/s
  std::vector<double> alloc_rate;         ///< max-min share before CPU clamp
  std::vector<double> wire_bytes;         ///< framed bytes moved so far
  std::vector<double> cpu_s;              ///< compress + I/O CPU charged
  std::vector<double> ratio_jitter;       ///< per-flow multiplicative jitter
  std::vector<double> speed_jitter;
  std::vector<core::ControllerState> ctrl;  ///< Algorithm 1 state (POD)
  std::vector<core::DecisionWindow> window; ///< Algorithm 1 window t (POD)

  // Cached epoch kernel (transfers): derived from (level, cls) + jitters,
  // refreshed only at spawn and on a controller level switch so the hot
  // epoch loop reads three doubles instead of re-deriving the model.
  std::vector<double> wf;          ///< wire factor incl. frame overhead
  std::vector<double> comp_speed;  ///< effective compress bytes/s
  std::vector<double> cpu_bound;   ///< comp_speed * wf (wire-rate ceiling)
};

}  // namespace strato::vsim
