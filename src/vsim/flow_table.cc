#include "vsim/flow_table.h"

namespace strato::vsim {

void FlowTable::reserve(std::size_t n) {
  phase.reserve(n);
  kind.reserve(n);
  tenant.reserve(n);
  cls.reserve(n);
  level.reserve(n);
  path.reserve(n);
  weight.reserve(n);
  raw_total.reserve(n);
  raw_remaining.reserve(n);
  dwell_remaining.reserve(n);
  arrival.reserve(n);
  admitted.reserve(n);
  finished.reserve(n);
  rate.reserve(n);
  alloc_rate.reserve(n);
  wire_bytes.reserve(n);
  cpu_s.reserve(n);
  ratio_jitter.reserve(n);
  speed_jitter.reserve(n);
  ctrl.reserve(n);
  window.reserve(n);
  wf.reserve(n);
  comp_speed.reserve(n);
  cpu_bound.reserve(n);
}

FlowTable::Id FlowTable::add_transfer(std::uint16_t tenant_id,
                                      std::uint32_t path_id,
                                      corpus::Compressibility c,
                                      std::uint64_t raw_bytes, double w,
                                      common::SimTime at, double ratio_jit,
                                      double speed_jit) {
  const Id id = static_cast<Id>(phase.size());
  phase.push_back(FlowPhase::kPending);
  kind.push_back(FlowKind::kTransfer);
  tenant.push_back(tenant_id);
  cls.push_back(c);
  level.push_back(0);
  path.push_back(path_id);
  weight.push_back(w);
  raw_total.push_back(static_cast<double>(raw_bytes));
  raw_remaining.push_back(static_cast<double>(raw_bytes));
  dwell_remaining.push_back(common::SimTime());
  arrival.push_back(at);
  admitted.push_back(common::SimTime());
  finished.push_back(common::SimTime());
  rate.push_back(0.0);
  alloc_rate.push_back(0.0);
  wire_bytes.push_back(0.0);
  cpu_s.push_back(0.0);
  ratio_jitter.push_back(ratio_jit);
  speed_jitter.push_back(speed_jit);
  ctrl.push_back(core::ControllerState{});
  window.push_back(core::DecisionWindow{});
  wf.push_back(1.0);
  comp_speed.push_back(0.0);
  cpu_bound.push_back(0.0);
  return id;
}

FlowTable::Id FlowTable::add_dwell(std::uint16_t tenant_id,
                                   std::uint32_t path_id, double w,
                                   common::SimTime at,
                                   common::SimTime dwell) {
  const Id id = add_transfer(tenant_id, path_id,
                             corpus::Compressibility::kLow, 0, w, at, 1.0,
                             1.0);
  kind[id] = FlowKind::kDwell;
  dwell_remaining[id] = dwell;
  return id;
}

}  // namespace strato::vsim
