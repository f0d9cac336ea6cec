#include "vsim/disk.h"

#include <algorithm>

namespace strato::vsim {

Disk::Disk(const VirtProfile& profile, std::uint64_t seed)
    : profile_(profile), fluct_(profile.disk_fluct, seed) {}

common::SimTime Disk::write(std::uint64_t bytes, common::SimTime now) {
  const auto& cache = profile_.disk_cache;
  const double n = static_cast<double>(bytes);
  if (!cache.write_back_cache) {
    const double rate =
        std::max(1.0, profile_.disk_write_bytes_s * fluct_.factor(now));
    return common::SimTime::seconds(n / rate);
  }
  if (now < flush_until_) {
    // The host is flushing; guest writes trickle at a few MB/s.
    return common::SimTime::seconds(n / cache.flush_rate);
  }
  // Absorb into the host page cache at memory-like speed.
  dirty_ += n;
  const common::SimTime dur = common::SimTime::seconds(n / cache.cache_rate);
  if (dirty_ >= cache.cache_bytes) {
    // Dirty budget exceeded: the host writes a chunk of the cache back to
    // the physical disk, stalling the guest's apparent throughput.
    const double drained = cache.cache_bytes * cache.flush_fraction;
    const double flush_secs =
        drained / std::max(1.0, profile_.disk_write_bytes_s);
    flush_until_ = now + dur + common::SimTime::seconds(flush_secs);
    dirty_ = std::max(0.0, dirty_ - drained);
  }
  return dur;
}

}  // namespace strato::vsim
