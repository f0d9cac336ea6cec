// strato_bench internals shared by the workloads.
//
// A workload runs in three phases inside one process:
//   1. set-up, repeated (inputs generated from the seed, the stack built,
//      warm-up traffic); setup_s is the median;
//   2. the measured window [T0, T1], sized from --seconds;
//   3. checks and, in a traced run, a single-thread codec side pass.
//
// Layers are timed from outside the library: each call the bench makes
// into a library layer, and each callback the library makes into bench
// code, is a span on the calling thread (trace.h). Nothing under src/
// knows about the benchmark.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "corpus/generator.h"

namespace strato::bench_suite {

/// Command line of one strato_bench process.
struct Options {
  std::string workload;
  std::uint64_t seed = 424242;
  /// Target length of the measured window. Each workload sizes its work
  /// from this at a nominal rate measured on a 4-vCPU x86 VM.
  double seconds = 10.0;
  /// JSONL span output; empty = untraced run.
  std::string trace_path;

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
  /// min(1, seconds / nominal): shrinks inputs and warm-up for runs
  /// shorter than the nominal one (the smoke test), never grows them.
  [[nodiscard]] double shrink(double nominal_seconds) const {
    return seconds >= nominal_seconds ? 1.0 : seconds / nominal_seconds;
  }
  /// Time set_up_repeatedly may spend: a tenth of the run, at most 1 s.
  [[nodiscard]] double setup_budget_s() const {
    return std::min(1.0, 0.1 * seconds);
  }
};

/// What one workload reports. `metrics` holds the end-to-end metrics,
/// `layers` the per-layer ones (counters always, span times when traced).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  /// Non-numeric facts worth keeping with the run (digests, pinning).
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Set-up repetitions per run: at least kMinSetups, more while the budget
/// lasts, at most kMaxSetups. setup_s is their median. The first builds in
/// a process run on a cold heap and cold code and take up to three times
/// longer; a median over many lands on the settled value.
inline constexpr int kMinSetups = 5;
inline constexpr int kMaxSetups = 50;

/// steady_clock nanoseconds.
std::int64_t now_ns();
/// A nanosecond interval in seconds / milliseconds.
inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}
inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}
/// Median of `xs` (0 when empty).
double median(std::vector<double> xs);

/// Build `Stack` repeatedly within `budget_s`, destroying all but the last
/// build, and report the median build time as setup_s.
template <typename Stack, typename... Args>
std::unique_ptr<Stack> set_up_repeatedly(RunResult& r, double budget_s,
                                         Args&&... args) {
  std::vector<double> secs;
  double spent = 0.0;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || spent < budget_s);
       ++i) {
    stack.reset();
    const std::int64_t t = now_ns();
    stack = std::make_unique<Stack>(args...);
    secs.push_back(ns_to_s(now_ns() - t));
    spent += secs.back();
  }
  r.metrics["setup_s"] = median(std::move(secs));
  return stack;
}

RunResult run_socket_bulk(const Options& opt);
RunResult run_socket_paced(const Options& opt);
RunResult run_link_dynamic(const Options& opt);
RunResult run_fleet(const Options& opt);

// --- measurement helpers ----------------------------------------------------

/// CPU time of a thread (any thread may ask about any other).
double thread_cpu_s(pthread_t thread);
/// Pin `a` and `b` to the last two CPUs the process may run on, one each.
/// Returns them as "a,b", or "" when fewer than two CPUs are allowed or
/// the kernel refused.
std::string pin_apart(pthread_t a, pthread_t b);
/// user + sys CPU of the whole process.
double process_cpu_s();
/// Peak resident set of the process so far, MiB.
double peak_rss_mib();

/// Nearest-rank quantile, q in [0, 1] (0 when empty); reorders `xs`.
double quantile(std::vector<double>& xs, double q);

inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * kMiB;

/// `bytes` of corpus class `c`, generated from `seed`.
common::Bytes make_pool(corpus::Compressibility c, std::uint64_t seed,
                        std::size_t bytes);

/// Latency samples -> bench.latency_{p99,p999}_ms and bench.latency_samples
/// in `layers`; returns p50 in ms.
double report_latency(std::vector<double>& latency_ms, RunResult& r);

/// Process CPU and context switches between start() and stop().
struct ProcessWindow {
  double cpu_s = 0.0;
  std::uint64_t vol = 0;
  std::uint64_t invol = 0;

  void start();
  void stop();
  /// os.vol_ctx_switches / os.invol_ctx_switches into `r.layers`.
  void report_switches(RunResult& r) const;
};

/// encode_block_into / try_parse_frame + decode_frame_into over `pool` at
/// `level` on the calling thread: compress.encode_mib_s and
/// compress.decode_mib_s. Verifies the round trip.
void codec_side_pass(common::ByteSpan pool, int level, std::size_t block,
                     RunResult& r);

}  // namespace strato::bench_suite
