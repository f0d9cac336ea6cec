#include "vsim/flow_table.h"

#include <type_traits>

namespace strato::vsim {

namespace {

/// Row `id` of `col` := v; `id` one past the end appends, so one writer
/// serves reused and new rows alike.
template <typename T>
void put(std::vector<T>& col, FlowTable::Id id, std::type_identity_t<T> v) {
  if (id == col.size()) {
    col.push_back(v);
  } else {
    col[id] = v;
  }
}

}  // namespace

FlowTable::Id FlowTable::add_transfer(std::uint16_t tenant_id,
                                      std::uint32_t path_id,
                                      corpus::Compressibility c,
                                      std::uint64_t raw_bytes, double w,
                                      common::SimTime at,
                                      common::SimTime admitted_at,
                                      double ratio_jit, double speed_jit) {
  Id id = static_cast<Id>(size());
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  }
  put(phase, id, FlowPhase::kActive);
  put(kind, id, FlowKind::kTransfer);
  put(tenant, id, tenant_id);
  put(cls, id, c);
  put(level, id, 0);
  put(path, id, path_id);
  put(weight, id, w);
  put(raw_total, id, static_cast<double>(raw_bytes));
  put(raw_remaining, id, static_cast<double>(raw_bytes));
  put(dwell_remaining, id, common::SimTime());
  put(arrival, id, at);
  put(admitted, id, admitted_at);
  put(rate, id, 0.0);
  put(alloc_rate, id, 0.0);
  put(ratio_jitter, id, ratio_jit);
  put(speed_jitter, id, speed_jit);
  put(ctrl, id, core::ControllerState{});
  put(window, id, core::DecisionWindow{admitted_at, 0.0, true});
  put(wf, id, 1.0);
  put(comp_speed, id, 0.0);
  put(cpu_bound, id, 0.0);
  return id;
}

FlowTable::Id FlowTable::add_dwell(std::uint16_t tenant_id,
                                   std::uint32_t path_id, double w,
                                   common::SimTime at,
                                   common::SimTime admitted_at,
                                   common::SimTime dwell) {
  const Id id = add_transfer(tenant_id, path_id,
                             corpus::Compressibility::kLow, 0, w, at,
                             admitted_at, 1.0, 1.0);
  kind[id] = FlowKind::kDwell;
  dwell_remaining[id] = dwell;
  return id;
}

void FlowTable::retire(Id id) {
  phase[id] = FlowPhase::kDone;
  retired_.push_back(id);
}

void FlowTable::release_retired() {
  free_.insert(free_.end(), retired_.begin(), retired_.end());
  retired_.clear();
}

}  // namespace strato::vsim
