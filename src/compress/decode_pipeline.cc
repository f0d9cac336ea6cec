#include "compress/decode_pipeline.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace strato::compress {

ParallelBlockDecodePipeline::ParallelBlockDecodePipeline(
    const CodecRegistry& registry, DecodePipelineConfig config)
    : registry_(registry),
      depth_(2 * std::max<std::size_t>(1, config.worker_count)),
      segment_size_(config.segment_size == 0 ? kDefaultDecodeSegmentSize
                                             : config.segment_size),
      slots_(depth_),
      // One output buffer per in-flight block plus a few receive segments
      // cycling through seal/retire.
      pool_(2 * depth_ + 4),
      workers_(config.worker_count > 1
                   ? std::make_unique<common::ThreadPool>(config.worker_count)
                   : nullptr) {}

ParallelBlockDecodePipeline::~ParallelBlockDecodePipeline() {
  // ThreadPool (constructed last, destroyed first) drains every accepted
  // decode before the slots and segments those jobs touch are destroyed.
  // Undelivered blocks are simply dropped.
  if (workers_ != nullptr) workers_->shutdown();
  drop_lease();
}

void ParallelBlockDecodePipeline::feed(common::ByteSpan data) {
  append_wire(data);
  parse_available();
  dispatch_available();
}

ParallelBlockDecodePipeline::Segment* ParallelBlockDecodePipeline::ensure_free(
    std::size_t n) {
  recv_seg_ = nullptr;  // any outstanding recv_span is invalidated
  if (segments_.empty()) {
    Segment fresh;
    fresh.data = pool_.acquire(std::max(segment_size_, n));
    // Expose the whole reserved capacity as writable space; `fill` tracks
    // how much of it actually holds wire bytes. data() never moves.
    fresh.data.resize(fresh.data.capacity());
    segments_.push_back(std::move(fresh));
  }
  Segment* seg = &segments_.back();

  // Fully-drained active segment: restart it in place (the FrameAssembler
  // "reset the offset, move nothing" case).
  if (seg->parse_off == seg->fill && seg->parse_off != 0) {
    bool drained;
    {
      common::MutexLock lk(mu_);
      drained = seg->outstanding == 0;
    }
    if (drained) {
      seg->fill = 0;
      seg->parse_off = 0;
    }
  }

  if (seg->fill + n > seg->data.size()) {
    // Wraparound: seal the segment and move ONLY the partial-frame tail
    // into a fresh one (every complete frame was already parsed in place).
    // This is the single point where a wire byte can move a second time.
    const std::size_t tail = seg->fill - seg->parse_off;
    std::size_t need = std::max(segment_size_, tail + n);
    // When the pending frame's header is known, size the fresh segment to
    // hold the whole frame so an oversized frame wraps at most once more.
    need = std::max(need, pending_frame_size_);
    Segment fresh;
    fresh.data = pool_.acquire(need);
    fresh.data.resize(fresh.data.capacity());
    if (tail > 0) {
      std::memcpy(fresh.data.data(), seg->data.data() + seg->parse_off,
                  tail);
      tail_bytes_copied_ += tail;
      seg->fill = seg->parse_off;  // the moved tail is dead in the old seg
    }
    fresh.fill = tail;
    seg->sealed = true;
    ++segments_sealed_;
    segments_.push_back(std::move(fresh));
    seg = &segments_.back();
  }
  return seg;
}

void ParallelBlockDecodePipeline::append_wire(common::ByteSpan data) {
  wire_fed_ += data.size();
  // A poisoned stream can never decode past the bad header; buffering more
  // bytes would only grow memory for frames that are unreachable.
  if (poisoned_ || data.empty()) return;

  Segment* seg = ensure_free(data.size());
  // The receive append: the one sanctioned wire-byte copy on this path
  // (recv_span()/commit() skips even this one).
  std::memcpy(seg->writable_tail().data(), data.data(), data.size());
  seg->fill += data.size();
}

common::MutableByteSpan ParallelBlockDecodePipeline::recv_span(
    std::size_t min_bytes) {
  if (min_bytes == 0) min_bytes = 1;
  if (poisoned_) {
    // Nothing past the poison frame can ever parse; let the reader drain
    // its socket into scratch instead of growing dead segments.
    if (poison_scratch_.size() < min_bytes) poison_scratch_.resize(min_bytes);
    recv_seg_ = nullptr;
    return {poison_scratch_.data(), poison_scratch_.size()};
  }
  Segment* seg = ensure_free(min_bytes);
  recv_seg_ = seg;
  return seg->writable_tail();
}

void ParallelBlockDecodePipeline::commit(std::size_t n) {
  wire_fed_ += n;
  if (n == 0) return;
  if (recv_seg_ == nullptr) {
    if (poisoned_) return;  // drained into scratch, dropped by design
    throw std::logic_error(
        "ParallelBlockDecodePipeline::commit without recv_span");
  }
  Segment* seg = recv_seg_;
  recv_seg_ = nullptr;
  if (seg->fill + n > seg->data.size()) {
    throw std::logic_error(
        "ParallelBlockDecodePipeline::commit exceeds recv_span");
  }
  seg->fill += n;
  parse_available();
  dispatch_available();
}

void ParallelBlockDecodePipeline::parse_available() {
  if (poisoned_ || segments_.empty()) return;
  // Invariant: only the active (last) segment holds unparsed bytes —
  // sealing moves the unparsed tail forward.
  Segment& seg = segments_.back();
  for (;;) {
    const std::size_t avail = seg.fill - seg.parse_off;
    // Each frame's header is parsed exactly once: cached on the first pass
    // that sees it complete, reused while starved for payload bytes.
    if (pending_frame_size_ == 0) {
      if (avail < kFrameHeaderSize) return;
      try {
        pending_hdr_ = parse_header(seg.unparsed());
      } catch (...) {
        // Poison at this exact frame position; rethrown (sticky) once
        // every preceding frame has been delivered — serial order.
        poisoned_ = true;
        parse_error_ = std::current_exception();
        return;
      }
      pending_frame_size_ = kFrameHeaderSize + pending_hdr_.comp_size;
    }
    if (avail < pending_frame_size_) return;

    ParsedFrame pf;
    pf.header = pending_hdr_;
    pf.payload = seg.unparsed().subspan(kFrameHeaderSize,
                                        pending_hdr_.comp_size);
    pf.segment = &seg;
    pf.frame_size = pending_frame_size_;
    {
      common::MutexLock lk(mu_);
      ++seg.outstanding;
    }
    seg.parse_off += pending_frame_size_;
    pending_frame_size_ = 0;
    ++parsed_seq_;
    // The parsed frame's payload span legitimately outlives this
    // statement: Segment::outstanding was incremented above, so the
    // segment cannot retire to the pool until the frame's decode
    // finishes — the queued borrow is lease-backed by construction.
    parsed_.push_back(pf);  // strato-lint: allow(lifetime)
  }
}

void ParallelBlockDecodePipeline::dispatch_available() {
  while (!parsed_.empty() && next_seq_ - deliver_seq_ < depth_) {
    const ParsedFrame pf = parsed_.front();
    parsed_.pop_front();
    const std::uint64_t seq = next_seq_++;
    Slot& slot = slots_[seq % depth_];
    slot.state = Slot::State::kPending;
    slot.header = pf.header;
    slot.payload = pf.payload;
    slot.segment = pf.segment;
    slot.frame_size = pf.frame_size;
    slot.error = nullptr;
    slot.out = pool_.acquire(pf.header.raw_size);
    if (workers_ != nullptr) {
      workers_->submit([this, seq] { decode_slot(seq); });
    } else {
      decode_slot(seq);
    }
  }
}

void ParallelBlockDecodePipeline::decode_slot(std::uint64_t seq) {
  Slot& slot = slots_[seq % depth_];
  std::exception_ptr error;
  try {
    FrameView view;
    view.header = slot.header;
    view.payload = slot.payload;
    view.frame_size = slot.frame_size;
    decode_frame_into(view, registry_, slot.out);
  } catch (...) {
    error = std::current_exception();
  }
  {
    common::MutexLock lk(mu_);
    slot.error = error;
    // The payload span is dead from here on; its segment can recycle once
    // its siblings finish too.
    --slot.segment->outstanding;
    slot.state = Slot::State::kReady;
  }
  ready_cv_.notify_all();
}

std::optional<DecodedBlock> ParallelBlockDecodePipeline::next_block() {
  drop_lease();
  dispatch_available();
  if (deliver_seq_ == next_seq_) {
    // Nothing in flight. If parsing hit a malformed header and every frame
    // before it has been delivered, this is exactly where the serial path
    // throws.
    if (poisoned_ && parsed_.empty() && parse_error_ != nullptr) {
      std::rethrow_exception(parse_error_);
    }
    retire_segments();
    return std::nullopt;
  }
  Slot& slot = slots_[deliver_seq_ % depth_];
  {
    common::MutexLock lk(mu_);
    while (slot.state != Slot::State::kReady) ready_cv_.wait(mu_);
  }
  // Past this point the slot belongs to the feeding thread again: the
  // worker finished (kReady) and no dispatch can reuse it before
  // deliver_seq_ advances.
  if (slot.error != nullptr) {
    // Sticky, like the serial path: the failed block stays at the head of
    // the window and every further call rethrows the same error.
    std::rethrow_exception(slot.error);
  }
  last_ = slot.header;
  lease_ = std::move(slot.out);
  lease_active_ = true;
  wire_delivered_ += slot.frame_size;
  slot = Slot{};
  ++deliver_seq_;
  retire_segments();
  dispatch_available();
  return DecodedBlock{common::ByteSpan(lease_), last_};
}

void ParallelBlockDecodePipeline::retire_segments() {
  while (!segments_.empty()) {
    Segment& front = segments_.front();
    if (!front.sealed) return;
    {
      common::MutexLock lk(mu_);
      if (front.outstanding != 0) return;
    }
    pool_.release(std::move(front.data));
    segments_.pop_front();
  }
}

void ParallelBlockDecodePipeline::drop_lease() {
  if (!lease_active_) return;
  lease_active_ = false;
  pool_.release(std::move(lease_));
}

}  // namespace strato::compress
