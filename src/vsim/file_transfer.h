// Adaptive compression on the file-I/O path — the paper's future work.
//
// Section VI: "For file I/O we found the aggressive caching mechanisms of
// some virtualization technologies to be a major obstacle which we intend
// to address for future work." This experiment implements that setting:
// the sender pipeline writes compressed 128 KB blocks
// (compress::kDefaultBlockSize, sized and timed by CodecModel::defaults()
// with draw_block_jitter's spread) to the virtual disk (src/vsim/disk.h)
// instead of the network:
//
//   sender CPU (compress + disk I/O handling) -> disk (incl. host cache)
//
// On XEN's write-back cache the application data rate the controller
// observes is the *cache absorb rate* most of the time, punctuated by
// flush stalls — exactly the misleading signal the paper warns about.
// The experiment lets us quantify how Algorithm 1 behaves on it.
#pragma once

#include "core/policy.h"
#include "metrics/timeseries.h"
#include "vsim/codec_model.h"
#include "vsim/disk.h"
#include "vsim/profile.h"

namespace strato::vsim {

/// Parameters of the file-write experiment.
struct FileTransferConfig {
  VirtTech tech = VirtTech::kXenPara;
  corpus::Compressibility data = corpus::Compressibility::kHigh;
  std::uint64_t total_bytes = 10'000'000'000ULL;
  std::uint64_t seed = 1;
  bool record_timeline = false;
};

/// Outcome of one file-write job.
struct FileTransferResult {
  double completion_s = 0.0;       ///< until the last block is *accepted*
  double drained_s = 0.0;          ///< plus flushing the remaining cache
  std::uint64_t raw_bytes = 0;
  std::uint64_t disk_bytes = 0;    ///< framed bytes handed to the disk
  double final_dirty_bytes = 0.0;  ///< unflushed data at completion
  std::vector<std::uint64_t> blocks_per_level;
  metrics::TimelineRecorder timeline;  ///< "app_mb_s", "level"
};

/// Run a file-write job under `policy`.
FileTransferResult run_file_transfer(const FileTransferConfig& config,
                                     core::CompressionPolicy& policy);

}  // namespace strato::vsim
