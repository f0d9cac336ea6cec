// strato_bench: one benchmark workload per process.
//
//   strato_bench --workload W [--seed N] [--seconds S] [--trace spans.jsonl]
//
// Workloads: socket_bulk_medium, socket_paced_stored, link_dynamic,
// fleet_250k (see README.md for why each exists). Inputs are generated from
// --seed before the clock starts; --seconds sizes the measured work. With
// --trace the run records spans around every call into the library and
// writes them as JSONL at exit.
//
// Prints one JSON record on stdout: the host and build fingerprint,
// correct/attempted/failed, end-to-end `metrics` and per-layer `layers`.
// Exit 0 when every delivered byte checked out, 1 when a check failed,
// 2 on a usage error, a refused build or a crash.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common/simd.h"
#include "suite.h"

namespace {

using strato::bench_suite::Options;
using strato::bench_suite::RunResult;

/// The smoke test's run length; any other length is a timed run.
constexpr double kSmokeSeconds = 0.2;

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"socket_bulk_medium", strato::bench_suite::run_socket_bulk},
    {"socket_paced_stored", strato::bench_suite::run_socket_paced},
    {"link_dynamic", strato::bench_suite::run_link_dynamic},
    {"fleet_250k", strato::bench_suite::run_fleet},
};

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STRATO_BENCH_CLANG_SANITIZED 1
#endif
#endif

bool sanitized_build() {
#if STRATO_BENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || defined(STRATO_BENCH_CLANG_SANITIZED)
  return true;
#else
  return false;
#endif
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(k) + ": " + fmt(v);
  }
  return out + "}";
}

std::string record(const Options& opt, const RunResult& r) {
  std::string errors = "[";
  for (const std::string& e : r.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += quoted(e);
  }
  errors += "]";
  const std::string host =
      "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + quoted(cpu_model()) + ", \"simd_isa\": " +
      quoted(strato::common::simd::to_string(
          strato::common::simd::active_isa())) +
      ", \"build_type\": " + quoted(STRATO_BENCH_BUILD_TYPE) +
      ", \"optimized\": " + (optimized_build() ? "true" : "false") +
      ", \"sanitized\": " + (sanitized_build() ? "true" : "false") +
      ", \"compiler\": " + quoted(compiler()) + "}";
  return "{\"workload\": " + quoted(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + number(opt.seconds) +
         ", \"traced\": " + (opt.traced() ? "true" : "false") +
         ", \"host\": " + host +
         ", \"correct\": " + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + object(r.metrics, number) +
         ", \"layers\": " + object(r.layers, number) +
         ", \"info\": " + object(r.info, quoted) + ", \"errors\": " + errors +
         "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: strato_bench --workload W [--seed N] [--seconds S] "
               "[--trace spans.jsonl]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return usage();
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    return usage();
  }
  if (opt.seconds != kSmokeSeconds &&
      (!optimized_build() || sanitized_build())) {
    std::fprintf(stderr,
                 "strato_bench: refusing a timed run from an unoptimized or "
                 "sanitized build (only --seconds %g is allowed)\n",
                 kSmokeSeconds);
    return 2;
  }

  RunResult r;
  try {
    r = workload->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "strato_bench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  r.metrics["peak_rss_mib"] = strato::bench_suite::peak_rss_mib();
  std::printf("%s\n", record(opt, r).c_str());
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "strato_bench: %s: %s\n", opt.workload.c_str(),
                 e.c_str());
  }
  return r.correct ? 0 : 1;
}
