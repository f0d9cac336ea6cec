// Structs-of-arrays store of the fleet simulator's flows in flight.
//
// The original TransferExperiment keeps one heap object per transfer
// (policy, link, timeline). At fleet scale that layout dies by pointer
// chasing and allocator pressure: every epoch touches every active flow,
// so the state an epoch reads (phase, remaining bytes, rate, level) must
// be contiguous. FlowTable stores each field as its own parallel vector;
// a flow is an index, not an object. The adaptive controller rides along
// as embedded POD (core::ControllerState, 40 bytes) and its decision
// window as core::DecisionWindow, so a million DYNAMIC flows are two flat
// arrays rather than two million heap objects.
//
// A row exists from admission to finish. A queued flow is not a row but
// a spawn record in its tenant's queue (FleetEngine), and a finished row
// is handed to a later admission, so the table grows with the flows in
// flight, not with every flow ever spawned. retire() parks a finished
// row; release_retired() makes the parked rows reusable once nothing
// still holds their ids (the fleet: after the allocator's next refold,
// DESIGN §15).
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

/// Row lifecycle.
enum class FlowPhase : std::uint8_t {
  kActive = 0,  ///< admitted, competing for link shares
  kDone,        ///< finished; the row waits for reuse
};

/// What the flow transports.
enum class FlowKind : std::uint8_t {
  kTransfer,  ///< fixed raw byte count through the compression module
  kDwell,     ///< background TCP connection occupying its share for a
              ///< fixed duration (the bgtraffic tenant class)
};

/// Structs-of-arrays store. All columns are index-parallel; FlowTable
/// guards the invariant that they grow together and owns the free list.
class FlowTable {
 public:
  using Id = std::uint32_t;

  /// Write an admitted transfer flow into a free row, or append a row
  /// when none is free; returns its id. Every column is written: kActive,
  /// level 0, rates 0, decision window opened at `admitted`.
  Id add_transfer(std::uint16_t tenant, std::uint32_t path,
                  corpus::Compressibility cls, std::uint64_t raw_bytes,
                  double weight, common::SimTime arrival,
                  common::SimTime admitted, double ratio_jit,
                  double speed_jit);

  /// Write an admitted dwell (background) flow; returns its id.
  Id add_dwell(std::uint16_t tenant, std::uint32_t path, double weight,
               common::SimTime arrival, common::SimTime admitted,
               common::SimTime dwell);

  /// Mark a finished flow's row kDone. Its columns stay readable, and it
  /// is not reused before the next release_retired().
  void retire(Id id);

  /// Make every row retired so far reusable.
  void release_retired();

  /// Rows ever written: in flight, retired or free.
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
  std::vector<double> rate;               ///< allocated wire bytes/s
  std::vector<double> alloc_rate;         ///< max-min share before CPU clamp
  std::vector<double> ratio_jitter;       ///< per-flow multiplicative jitter
  std::vector<double> speed_jitter;
  std::vector<core::ControllerState> ctrl;  ///< Algorithm 1 state (POD)
  std::vector<core::DecisionWindow> window; ///< Algorithm 1 window t (POD)

  // Cached epoch kernel (transfers): derived from (level, cls) + jitters,
  // refreshed only at admission and on a controller level switch so the
  // hot epoch loop reads three doubles instead of re-deriving the model.
  std::vector<double> wf;          ///< wire factor incl. frame overhead
  std::vector<double> comp_speed;  ///< effective compress bytes/s
  std::vector<double> cpu_bound;   ///< comp_speed * wf (wire-rate ceiling)

 private:
  std::vector<Id> retired_;  ///< finished since the last release
  std::vector<Id> free_;     ///< reusable rows, taken last-in first-out
};

}  // namespace strato::vsim
