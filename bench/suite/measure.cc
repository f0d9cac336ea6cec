#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "compress/framing.h"
#include "compress/registry.h"
#include "suite.h"

namespace strato::bench_suite {

namespace {

void context_switches(std::uint64_t& voluntary, std::uint64_t& involuntary) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  voluntary = static_cast<std::uint64_t>(ru.ru_nvcsw);
  involuntary = static_cast<std::uint64_t>(ru.ru_nivcsw);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s(pthread_t thread) {
  clockid_t id{};
  timespec ts{};
  if (pthread_getcpuclockid(thread, &id) != 0 ||
      clock_gettime(id, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + ns_to_s(ts.tv_nsec);
}

std::string pin_apart(pthread_t a, pthread_t b) {
  // Read once: after the first call the calling thread's own mask is one
  // CPU.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  int cpus[2] = {-1, -1};
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpus[0] < 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    (cpus[1] < 0 ? cpus[1] : cpus[0]) = c;
  }
  if (cpus[0] < 0) return {};
  const pthread_t threads[2] = {a, b};
  for (int i = 0; i < 2; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    if (pthread_setaffinity_np(threads[i], sizeof one, &one) != 0) return {};
  }
  return std::to_string(cpus[0]) + "," + std::to_string(cpus[1]);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> xs) { return quantile(xs, 0.5); }

double quantile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1) + 0.5);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank),
                   xs.end());
  return xs[rank];
}

common::Bytes make_pool(corpus::Compressibility c, std::uint64_t seed,
                        std::size_t bytes) {
  auto gen = corpus::make_generator(c, seed);
  return corpus::take(*gen, bytes);
}

double report_latency(std::vector<double>& latency_ms, RunResult& r) {
  r.layers["bench.latency_samples"] = static_cast<double>(latency_ms.size());
  r.layers["bench.latency_p99_ms"] = quantile(latency_ms, 0.99);
  r.layers["bench.latency_p999_ms"] = quantile(latency_ms, 0.999);
  return quantile(latency_ms, 0.5);
}

void ProcessWindow::start() {
  cpu_s = process_cpu_s();
  context_switches(vol, invol);
}

void ProcessWindow::stop() {
  std::uint64_t vol1 = 0;
  std::uint64_t invol1 = 0;
  context_switches(vol1, invol1);
  cpu_s = process_cpu_s() - cpu_s;
  vol = vol1 - vol;
  invol = invol1 - invol;
}

void ProcessWindow::report_switches(RunResult& r) const {
  r.layers["os.vol_ctx_switches"] = static_cast<double>(vol);
  r.layers["os.invol_ctx_switches"] = static_cast<double>(invol);
}

void codec_side_pass(common::ByteSpan pool, int level, std::size_t block,
                     RunResult& r) {
  const compress::CodecRegistry& registry = compress::CodecRegistry::standard();
  const compress::Codec& codec =
      *registry.level(static_cast<std::size_t>(level)).codec;
  const std::size_t blocks = pool.size() / block;
  std::vector<common::Bytes> frames(blocks);
  for (common::Bytes& f : frames) f.reserve(compress::kFrameHeaderSize + block);
  const std::int64_t t0 = now_ns();
  for (std::size_t b = 0; b < blocks; ++b) {
    compress::encode_block_into(codec, static_cast<std::uint8_t>(level),
                                pool.subspan(b * block, block), frames[b]);
  }
  const std::int64_t t1 = now_ns();
  common::Bytes raw;
  raw.reserve(block);
  std::size_t intact = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto view = compress::try_parse_frame(frames[b]);
    if (!view) break;
    compress::decode_frame_into(*view, registry, raw);
    if (raw.size() == block &&
        std::memcmp(raw.data(), pool.data() + b * block, block) == 0) {
      ++intact;
    }
  }
  const std::int64_t t2 = now_ns();
  if (intact != blocks) r.fail("codec side pass: round trip mismatch");
  const double mib = static_cast<double>(blocks * block) / kMiB;
  r.layers["compress.encode_mib_s"] = mib / ns_to_s(t1 - t0);
  r.layers["compress.decode_mib_s"] = mib / ns_to_s(t2 - t1);
}

}  // namespace strato::bench_suite
