#include "vsim/iobench.h"

#include <algorithm>

#include "common/rng.h"
#include "vsim/disk.h"
#include "vsim/topology.h"

namespace strato::vsim {

namespace {

/// Per-sample multiplicative measurement noise around a mean breakdown.
metrics::CpuBreakdown noisy(const metrics::CpuBreakdown& mean,
                            common::Xoshiro256& rng, double sigma) {
  const auto jitter = [&](double v) {
    return v <= 0.0 ? 0.0
                    : std::max(0.0, v * rng.gaussian(1.0, sigma));
  };
  return {jitter(mean.usr), jitter(mean.sys), jitter(mean.hirq),
          jitter(mean.sirq), jitter(mean.steal)};
}

}  // namespace

CpuAccuracyResult run_cpu_accuracy(VirtTech tech, IoOp op, int num_samples,
                                   std::uint64_t seed) {
  const VirtProfile& prof = profile(tech);
  const CpuAccounting acc = prof.accounting(op);
  common::Xoshiro256 rng(seed ^ 0xC9A0000000000031ULL);

  CpuAccuracyResult res;
  res.host_observable = acc.host_observable;
  res.samples.reserve(static_cast<std::size_t>(num_samples));
  metrics::CpuBreakdown vm_sum, host_sum;
  for (int i = 0; i < num_samples; ++i) {
    CpuAccuracySample s;
    s.vm = noisy(acc.vm_view, rng, 0.08);
    s.host = acc.host_observable ? noisy(acc.host_view, rng, 0.08)
                                 : metrics::CpuBreakdown{};
    vm_sum += s.vm;
    host_sum += s.host;
    res.samples.push_back(s);
  }
  const double inv = 1.0 / std::max(1, num_samples);
  res.vm_mean = vm_sum * inv;
  res.host_mean = host_sum * inv;
  return res;
}

common::Sample run_net_throughput(VirtTech tech, std::uint64_t total_bytes,
                                  std::uint64_t chunk_bytes,
                                  std::uint64_t seed) {
  const Topology topo = Topology::single(profile(tech));
  LinkBank link(topo, seed);
  common::Sample sample;
  common::SimTime now;
  std::uint64_t sent = 0;
  // Move the stream in small grains so fast fluctuation (EC2's tens of
  // milliseconds) is integrated into each 20 MB chunk the way the guest's
  // timestamping would see it.
  const std::uint64_t grain = 256 * 1024;
  while (sent < total_bytes) {
    const common::SimTime chunk_start = now;
    std::uint64_t in_chunk = 0;
    while (in_chunk < chunk_bytes && sent < total_bytes) {
      const std::uint64_t n =
          std::min<std::uint64_t>(grain, chunk_bytes - in_chunk);
      const double rate = std::max(1.0, link.capacity(0, now));
      now += common::SimTime::seconds(static_cast<double>(n) / rate);
      in_chunk += n;
      sent += n;
    }
    const double secs = (now - chunk_start).to_seconds();
    if (secs > 0) {
      sample.add(static_cast<double>(in_chunk) * 8e-6 / secs);  // MBit/s
    }
  }
  return sample;
}

FileWriteResult run_file_write_throughput(VirtTech tech,
                                          std::uint64_t total_bytes,
                                          std::uint64_t chunk_bytes,
                                          std::uint64_t seed) {
  const VirtProfile& prof = profile(tech);
  Disk disk(prof, seed);
  FileWriteResult res;
  common::SimTime now;
  std::uint64_t written = 0;
  const std::uint64_t grain = 1024 * 1024;
  while (written < total_bytes) {
    const common::SimTime chunk_start = now;
    std::uint64_t in_chunk = 0;
    while (in_chunk < chunk_bytes && written < total_bytes) {
      const std::uint64_t n =
          std::min<std::uint64_t>(grain, chunk_bytes - in_chunk);
      now += disk.write(n, now);
      in_chunk += n;
      written += n;
    }
    const double secs = (now - chunk_start).to_seconds();
    if (secs > 0) {
      res.rates_mb_s.add(static_cast<double>(in_chunk) * 1e-6 / secs);
    }
  }
  res.final_dirty_bytes = disk.dirty_bytes();
  return res;
}

}  // namespace strato::vsim
