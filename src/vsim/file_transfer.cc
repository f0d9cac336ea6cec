#include "vsim/file_transfer.h"

#include <algorithm>

#include "common/rng.h"
#include "compress/framing.h"

namespace strato::vsim {

using common::SimTime;

FileTransferResult run_file_transfer(const FileTransferConfig& config,
                                     core::CompressionPolicy& policy) {
  const VirtProfile& prof = profile(config.tech);
  Disk disk(prof, config.seed);
  common::Xoshiro256 rng(config.seed ^ 0xF17E000000000C0DULL);
  const CodecModel model = CodecModel::defaults();

  FileTransferResult res;
  res.blocks_per_level.assign(CodecModel::kNumLevels, 0);

  // The writer is synchronous: compress a block, hand it to the disk,
  // wait for the (possibly cache-absorbed) write to be accepted. That is
  // the raw-I/O-API behaviour the paper's auxiliary programs used.
  SimTime now;
  std::vector<double> app_bytes_per_s;
  std::uint64_t raw_offset = 0;
  while (raw_offset < config.total_bytes) {
    const std::uint64_t raw = std::min<std::uint64_t>(
        compress::kDefaultBlockSize, config.total_bytes - raw_offset);
    const int level =
        std::clamp(policy.level(), 0, CodecModel::kNumLevels - 1);
    const LevelBehaviour& beh = model.get(level, config.data);

    const BlockJitter jit = draw_block_jitter(rng);
    const double ratio = std::min(1.0, beh.ratio * jit.ratio);
    const double disk_bytes =
        static_cast<double>(raw) * ratio + compress::kFrameHeaderSize;

    // Compress on the vCPU, charge disk I/O handling cost, then the
    // actual (cache-aware) disk write.
    const double cpu_s =
        static_cast<double>(raw) / (beh.compress_bytes_s * jit.speed) +
        disk_bytes * prof.disk_cpu_s_per_byte;
    now += SimTime::seconds(cpu_s);
    now += disk.write(static_cast<std::uint64_t>(disk_bytes), now);

    res.raw_bytes += raw;
    res.disk_bytes += static_cast<std::uint64_t>(disk_bytes);
    ++res.blocks_per_level[static_cast<std::size_t>(level)];
    if (config.record_timeline) {
      res.timeline.record("level", now, level);
      const auto bucket = static_cast<std::size_t>(now.to_seconds());
      if (bucket >= app_bytes_per_s.size()) {
        app_bytes_per_s.resize(bucket + 1, 0.0);
      }
      app_bytes_per_s[bucket] += static_cast<double>(raw);
    }

    policy.on_block(raw, now);
    raw_offset += raw;
  }

  res.completion_s = now.to_seconds();
  res.final_dirty_bytes = disk.dirty_bytes();
  // Draining: the time until the host cache is truly on the platter.
  res.drained_s =
      res.completion_s +
      res.final_dirty_bytes / std::max(1.0, prof.disk_write_bytes_s);

  if (config.record_timeline) {
    for (std::size_t s = 0; s < app_bytes_per_s.size(); ++s) {
      res.timeline.record("app_mb_s",
                          SimTime::seconds(static_cast<double>(s)),
                          app_bytes_per_s[s] / 1e6);
    }
  }
  return res;
}

}  // namespace strato::vsim
