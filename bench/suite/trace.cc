#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace strato::bench_suite {

namespace {

constexpr const char* kSpanNames[kSpanCount] = {
    "core.tx.send",         "core.tx.send_drive", "core.tx.poll",
    "core.tx.finish",       "core.rx.poll",       "core.writer.write",
    "core.writer.flush",    "core.link.wait",     "core.policy.on_block",
    "core.reader.read_wait", "core.reader.decode", "vsim.fleet.construct",
    "vsim.fleet.run",       "bench.verify",       "bench.pace",
    "bench.join",
};

/// A thread must account for this share of the window in top-level spans.
constexpr double kMinCoverage = 0.90;

}  // namespace

void ThreadTrace::begin(SpanId id) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back().seq;
  stack_.push_back(Open{id, now_ns(), 0, next_seq_++, parent});
}

void ThreadTrace::end() {
  const std::int64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - open.start;
  if (!stack_.empty()) stack_.back().child_ns += dur;

  const std::int64_t t0 = tracer_.t0();
  const std::int64_t t1 = tracer_.t1();
  if (t0 == 0 || end <= t0 || open.start >= t1) return;
  const std::int64_t clipped =
      std::min(end, t1) - std::max(open.start, t0);
  Agg& a = agg_[open.id];
  a.total_ns += clipped;
  a.self_ns += clipped - std::min(open.child_ns, clipped);
  if (stack_.empty()) covered_ns_ += clipped;
  if (kept_.size() < Tracer::kKeptPerThread) {
    kept_.push_back(Kept{open.id, open.seq, open.parent, open.start, end});
  } else {
    ++dropped_;
  }
}

double Tracer::total_s(SpanId id) const {
  std::int64_t ns = 0;
  for (const ThreadTrace& t : threads_) ns += t.agg_[id].total_ns;
  return ns_to_s(ns);
}

double Tracer::self_s(SpanId id) const {
  std::int64_t ns = 0;
  for (const ThreadTrace& t : threads_) ns += t.agg_[id].self_ns;
  return ns_to_s(ns);
}

void Tracer::report(const std::string& jsonl_path, RunResult& r) const {
  if (!write_jsonl(jsonl_path)) r.fail("cannot write " + jsonl_path);
  const double window = static_cast<double>(t1() - t0());
  double worst = 0.0;
  for (const ThreadTrace& t : threads_) {
    const double unaccounted =
        window > 0.0 ? 1.0 - static_cast<double>(t.covered_ns_) / window : 1.0;
    r.layers["bench." + t.name() + ".unaccounted_frac"] = unaccounted;
    worst = std::max(worst, unaccounted);
    if (unaccounted > 1.0 - kMinCoverage) {
      r.fail("thread " + t.name() + ": top-level spans cover only " +
             std::to_string(100.0 * (1.0 - unaccounted)) + "% of the window");
    }
  }
  r.layers["bench.unaccounted_frac_max"] = worst;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = t0();
  for (const ThreadTrace& t : threads_) {
    for (const ThreadTrace::Kept& k : t.kept_) {
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"span\":\"%s\",\"id\":%lld,"
                   "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t.name().c_str(), kSpanNames[k.id],
                   static_cast<long long>(k.seq),
                   static_cast<long long>(k.parent),
                   static_cast<long long>(k.start - base),
                   static_cast<long long>(k.end - base));
    }
    if (t.dropped_ > 0) {
      std::fprintf(f, "{\"thread\":\"%s\",\"dropped_spans\":%llu}\n",
                   t.name().c_str(),
                   static_cast<unsigned long long>(t.dropped_));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace strato::bench_suite
