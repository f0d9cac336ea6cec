#include "common/chaos.h"

#include <algorithm>

#include "common/rng.h"

namespace strato::common {

ChaosSchedule ChaosSchedule::scripted(std::vector<ChaosEvent> events) {
  ChaosSchedule s;
  s.events_ = std::move(events);
  std::stable_sort(s.events_.begin(), s.events_.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  return s;
}

ChaosSchedule ChaosSchedule::random(const RandomSpec& spec,
                                    std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0xC4A05C0000000001ULL);
  std::vector<ChaosEvent> events;
  const std::uint64_t range = spec.range == 0 ? 1 : spec.range;
  for (int i = 0; i < spec.stalls; ++i) {
    ChaosEvent ev;
    ev.kind = ChaosKind::kStall;
    ev.at = rng.below(range);
    // Exponential-ish spread around the mean keeps stalls heterogeneous.
    ev.stall_ns = 1 + static_cast<std::uint64_t>(
                          static_cast<double>(spec.mean_stall_ns) *
                          (0.25 + 1.5 * rng.uniform()));
    events.push_back(ev);
  }
  for (int i = 0; i < spec.drops; ++i) {
    ChaosEvent ev;
    ev.kind = ChaosKind::kDrop;
    ev.at = rng.below(range);
    ev.span = 1 + rng.below(std::max<std::uint64_t>(1, spec.max_drop_span));
    events.push_back(ev);
  }
  for (int i = 0; i < spec.corruptions; ++i) {
    ChaosEvent ev;
    ev.kind = ChaosKind::kCorrupt;
    ev.at = rng.below(range);
    ev.xor_mask = static_cast<std::uint8_t>(1 + rng.below(255));
    events.push_back(ev);
  }
  return scripted(std::move(events));
}

double ChaosSchedule::capacity_factor(std::uint64_t now_ns) const {
  double f = 1.0;
  for (const auto& ev : events_) {
    if (ev.kind != ChaosKind::kBlackout) continue;
    if (ev.at > now_ns) break;  // sorted: no later window can cover now
    if (now_ns < ev.at + ev.span) {
      f *= std::clamp(ev.factor, 0.0, 1.0);
    }
  }
  return f;
}

void ChaosWalker::walk(ByteSpan data,
                       const std::function<void(ByteSpan)>& emit,
                       const std::function<void(std::uint64_t)>& stall) {
  const std::vector<ChaosEvent>& events = schedule_.events();
  const std::uint64_t base = offset_;
  std::size_t pos = 0;
  while (pos < data.size()) {
    while (idx_ < events.size() && events[idx_].at < base + pos) {
      ++idx_;  // events that landed inside an already-walked span
    }
    std::size_t next = data.size();
    if (idx_ < events.size() && events[idx_].at < base + data.size()) {
      next = static_cast<std::size_t>(events[idx_].at - base);
    }
    if (next > pos) {
      emit(data.subspan(pos, next - pos));
      pos = next;
      continue;
    }
    const ChaosEvent& ev = events[idx_++];
    switch (ev.kind) {
      case ChaosKind::kStall:
        stall(std::max<std::uint64_t>(ev.stall_ns, 1));
        break;
      case ChaosKind::kDrop:
        pos += static_cast<std::size_t>(std::min<std::uint64_t>(
            std::max<std::uint64_t>(ev.span, 1), data.size() - pos));
        break;
      case ChaosKind::kCorrupt: {
        const std::uint8_t flipped =
            data[pos] ^ (ev.xor_mask == 0 ? std::uint8_t{0xFF} : ev.xor_mask);
        emit(ByteSpan(&flipped, 1));
        ++pos;
        break;
      }
      case ChaosKind::kBlackout:
        break;
    }
  }
  offset_ = base + data.size();
}

}  // namespace strato::common
