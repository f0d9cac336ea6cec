#include "compress/decode_pipeline.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace strato::compress {

ParallelBlockDecodePipeline::ParallelBlockDecodePipeline(
    const CodecRegistry& registry, DecodePipelineConfig config)
    : registry_(registry),
      segment_size_(config.segment_size == 0 ? kDefaultDecodeSegmentSize
                                             : config.segment_size),
      // One output buffer per in-flight block plus a few receive segments
      // cycling through seal/retire.
      pool_(2 * detail::ReorderWindow<Slot>::depth_for(config.worker_count) +
            4),
      window_(config.worker_count, [this](Slot& s) {
        decode_frame_into(s.frame, registry_, s.out);
      }) {}

void ParallelBlockDecodePipeline::feed(common::ByteSpan data) {
  // recv_span() asks for at least one byte, so an empty feed could seal a
  // full segment for nothing; past a poisoned header nothing parses, so
  // commit() only counts the bytes.
  if (!data.empty() && parse_error_ == nullptr) {
    // The receive append: the one sanctioned wire-byte copy on this path
    // (recv_span()/commit() callers skip even this one).
    const common::MutableByteSpan span = recv_span(data.size());
    std::memcpy(span.data(), data.data(), data.size());
  }
  commit(data.size());
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

  // Fully-parsed active segment that delivery has moved past: restart it
  // in place (the FrameAssembler "reset the offset, move nothing" case).
  if (seg->parse_off == seg->fill && seg->parse_off != 0 &&
      window_.delivered() >= seg->frames_end) {
    seg->fill = 0;
    seg->parse_off = 0;
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

common::MutableByteSpan ParallelBlockDecodePipeline::recv_span(
    std::size_t min_bytes) {
  if (min_bytes == 0) min_bytes = 1;
  if (parse_error_ != nullptr) {
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
    if (parse_error_ != nullptr) return;  // scratch bytes, dropped by design
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
  if (parse_error_ != nullptr || segments_.empty()) return;
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
        parse_error_ = std::current_exception();
        return;
      }
      pending_frame_size_ = kFrameHeaderSize + pending_hdr_.comp_size;
    }
    if (avail < pending_frame_size_) return;

    FrameView frame;
    frame.header = pending_hdr_;
    frame.payload = seg.unparsed().subspan(kFrameHeaderSize,
                                           pending_hdr_.comp_size);
    frame.frame_size = pending_frame_size_;
    seg.parse_off += pending_frame_size_;
    pending_frame_size_ = 0;
    seg.frames_end = ++parsed_seq_;
    // The parsed frame's payload span legitimately outlives this
    // statement: the segment cannot retire to the pool until delivery
    // passes seg.frames_end, and a delivered frame has finished decoding
    // — the queued borrow is lease-backed by construction.
    parsed_.push_back(frame);  // strato-lint: allow(lifetime)
  }
}

void ParallelBlockDecodePipeline::dispatch_available() {
  while (!parsed_.empty() && !window_.full()) {
    Slot& slot = window_.next_slot();
    slot.frame = parsed_.front();
    parsed_.pop_front();
    slot.out = pool_.acquire(slot.frame.header.raw_size);
    window_.start();
  }
}

std::optional<DecodedBlock> ParallelBlockDecodePipeline::next_block() {
  drop_lease();
  dispatch_available();
  if (window_.empty()) {
    // Nothing in flight. If parsing hit a malformed header and every frame
    // before it has been delivered, this is exactly where the serial path
    // throws.
    if (parse_error_ != nullptr && parsed_.empty()) {
      std::rethrow_exception(parse_error_);
    }
    retire_segments();
    return std::nullopt;
  }
  window_.head_ready(/*wait=*/true);
  if (const std::exception_ptr error = window_.head_error()) {
    // Sticky, like the serial path: the failed block stays at the head of
    // the window and every further call rethrows the same error.
    std::rethrow_exception(error);
  }
  Slot& slot = window_.head();
  last_ = slot.frame.header;
  lease_ = std::move(slot.out);
  lease_active_ = true;
  wire_delivered_ += slot.frame.frame_size;
  window_.pop();
  retire_segments();
  dispatch_available();
  return DecodedBlock{common::ByteSpan(lease_), last_};
}

void ParallelBlockDecodePipeline::retire_segments() {
  while (!segments_.empty() && segments_.front().sealed &&
         window_.delivered() >= segments_.front().frames_end) {
    pool_.release(std::move(segments_.front().data));
    segments_.pop_front();
  }
}

void ParallelBlockDecodePipeline::drop_lease() {
  if (!lease_active_) return;
  lease_active_ = false;
  pool_.release(std::move(lease_));
}

}  // namespace strato::compress
