#include "core/transport.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace strato::core {

namespace {

/// iovec batch per sendmsg call. 64 segments x 256 KB default segments is
/// far past any kernel buffer; one call always empties or fills.
constexpr std::size_t kMaxIov = 64;

std::exception_ptr errno_error(const char* what, int err) {
  return std::make_exception_ptr(std::runtime_error(
      std::string(what) + ": " + std::strerror(err)));
}

}  // namespace

// ---------------------------------------------------------------------------
// AsyncSender

AsyncSender::AsyncSender(EpollLoop& loop, TcpConnection conn,
                         const compress::CodecRegistry& registry,
                         Config config, metrics::MetricRegistry& metrics)
    : loop_(loop),
      conn_(std::move(conn)),
      config_(std::move(config)),
      counters_(metrics, metrics::BlockCounters::kTx, registry.level_count()),
      m_wire_bytes_(counters_.counter_named("wire_bytes")),
      m_sendmsg_(counters_.counter_named("sendmsg_calls")),
      m_stalls_(counters_.counter_named("chaos_stalls")),
      m_backpressure_(counters_.counter_named("backpressure")),
      m_queued_(counters_.gauge_named("queued_bytes")),
      pipeline_(registry,
                compress::PipelineConfig{config_.workers, config_.depth},
                [this](common::ByteSpan frame, std::size_t raw_size,
                       int level) { enqueue_frame(frame, raw_size, level); }),
      chaos_(config_.chaos) {
  if (config_.segment_bytes == 0) config_.segment_bytes = 64 * 1024;
  if (config_.low_watermark > config_.high_watermark) {
    config_.low_watermark = config_.high_watermark / 2;
  }
  conn_.set_nonblocking(true);
  loop_.add(conn_.fd(), 0, [this](std::uint32_t ev) { on_event(ev); });
  watched_ = true;
}

AsyncSender::~AsyncSender() {
  m_queued_.add(-static_cast<std::int64_t>(queued_bytes_));  // never sent
  if (watched_) loop_.remove(conn_.fd());
}

void AsyncSender::send(int level, common::ByteSpan payload) {
  throw_if_broken();
  // Frames arrive (in submission order) through enqueue_frame.
  pipeline_.submit(level, payload);
  if (queued_bytes_ > config_.high_watermark) {
    // The kernel buffer is full and frames keep landing: stall the
    // application (exactly what a blocking socket would do) until the
    // queue drains below the low watermark.
    ++backpressure_events_;
    m_backpressure_.add();
    drive_until(config_.low_watermark);
  }
  throw_if_broken();
}

void AsyncSender::finish() {
  throw_if_broken();
  pipeline_.flush();
  finishing_ = true;
  pump();
  while (broken_ == nullptr && !(drained() && shut_)) {
    loop_.poll(1);
    pump();
  }
  throw_if_broken();
}

void AsyncSender::on_event(std::uint32_t events) {
  if (broken_ != nullptr) return;
  pump();
  if ((events & EpollLoop::kError) != 0 && broken_ == nullptr &&
      queue_.empty() && !finishing_) {
    // Peer reset while idle: fetch the pending socket error so the sticky
    // exception names the real errno, and stop watching a dead fd.
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(conn_.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    mark_broken(errno_error("socket", err != 0 ? err : ECONNRESET));
  }
}

void AsyncSender::enqueue_frame(common::ByteSpan frame, std::size_t raw_size,
                                int level) {
  counters_.record(raw_size, frame.size(), static_cast<std::size_t>(level));
  // ThrottledPipe's walk, except that kStall extends a flush deadline
  // instead of sleeping, so a stalled connection never freezes its loop's
  // siblings.
  chaos_.walk(
      frame, [this](common::ByteSpan bytes) { append_wire_bytes(bytes); },
      [this](std::uint64_t stall_ns) {
        const common::SimTime now = clock_.now();
        const common::SimTime from = stall_until_ > now ? stall_until_ : now;
        stall_until_ =
            from + common::SimTime::ns(static_cast<std::int64_t>(stall_ns));
        m_stalls_.add();
      });
  // Opportunistic flush so small streams move without waiting for a poll.
  pump();
}

void AsyncSender::append_wire_bytes(common::ByteSpan bytes) {
  if (broken_ != nullptr) return;  // queue already abandoned
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (queue_.empty() ||
        queue_.back().data.size() == queue_.back().data.capacity()) {
      SendSeg seg;
      seg.data = pool_.acquire(config_.segment_bytes);
      queue_.push_back(std::move(seg));
    }
    common::Bytes& tail = queue_.back().data;
    const std::size_t take =
        std::min(tail.capacity() - tail.size(), bytes.size() - pos);
    tail.insert(tail.end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                bytes.begin() + static_cast<std::ptrdiff_t>(pos + take));
    pos += take;
    queued_bytes_ += take;
  }
  m_queued_.add(static_cast<std::int64_t>(bytes.size()));
}

void AsyncSender::pump() {
  if (broken_ != nullptr) return;
  if (!stalled()) {
    while (!queue_.empty()) {
      iovec iov[kMaxIov];
      std::size_t cnt = 0;
      for (const SendSeg& seg : queue_) {
        if (cnt == kMaxIov) break;
        // sendmsg never writes through the iovec; the const_cast only
        // satisfies the kernel's writev-shaped struct.
        const common::ByteSpan pending = seg.pending();
        iov[cnt].iov_base = const_cast<std::uint8_t*>(pending.data());
        iov[cnt].iov_len = pending.size();
        ++cnt;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = cnt;
      const ssize_t n = ::sendmsg(conn_.fd(), &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        mark_broken(errno_error("sendmsg", errno));
        return;
      }
      m_sendmsg_.add();
      m_wire_bytes_.add(static_cast<std::uint64_t>(n));
      queued_bytes_ -= static_cast<std::size_t>(n);
      m_queued_.add(-static_cast<std::int64_t>(n));
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        SendSeg& front = queue_.front();
        const std::size_t have = front.data.size() - front.off;
        if (left < have) {
          front.off += left;
          break;
        }
        left -= have;
        pool_.release(std::move(front.data));
        queue_.pop_front();
      }
    }
  }
  if (queue_.empty() && finishing_ && !stalled()) {
    if (!shut_) {
      conn_.shutdown_send();
      shut_ = true;
    }
    if (watched_) {
      // Fully flushed and half-closed: leave the loop so the peer's
      // eventual close does not EPOLLHUP-storm sibling pollers.
      loop_.remove(conn_.fd());
      watched_ = false;
    }
    return;
  }
  update_interest();
}

void AsyncSender::update_interest() {
  // Level-triggered kWrite while anything is queued — including during a
  // stall, where the immediate re-fire is what re-runs pump() past the
  // deadline without anyone sleeping.
  const bool want = !queue_.empty();
  if (watched_ && want != want_write_armed_) {
    loop_.modify(conn_.fd(), want ? EpollLoop::kWrite : 0);
    want_write_armed_ = want;
  }
}

bool AsyncSender::stalled() const {
  return stall_until_.nanos() != 0 && clock_.now() < stall_until_;
}

void AsyncSender::drive_until(std::size_t below_bytes) {
  while (broken_ == nullptr && queued_bytes_ > below_bytes) {
    loop_.poll(1);
    pump();
  }
}

void AsyncSender::throw_if_broken() const {
  if (broken_ != nullptr) std::rethrow_exception(broken_);
}

void AsyncSender::mark_broken(std::exception_ptr error) {
  broken_ = std::move(error);
  for (SendSeg& seg : queue_) pool_.release(std::move(seg.data));
  queue_.clear();
  m_queued_.add(-static_cast<std::int64_t>(queued_bytes_));
  queued_bytes_ = 0;
  if (watched_) {
    loop_.remove(conn_.fd());
    watched_ = false;
  }
}

// ---------------------------------------------------------------------------
// AsyncReceiver

AsyncReceiver::AsyncReceiver(EpollLoop& loop, TcpConnection conn,
                             const compress::CodecRegistry& registry,
                             Config config, BlockSink sink,
                             metrics::MetricRegistry& metrics)
    : loop_(loop),
      conn_(std::move(conn)),
      config_(std::move(config)),
      counters_(metrics, metrics::BlockCounters::kRx, registry.level_count()),
      m_wire_bytes_(counters_.counter_named("wire_bytes")),
      m_errors_(counters_.counter_named("errors")),
      m_eofs_(counters_.counter_named("eofs")),
      m_backpressure_(counters_.counter_named("backpressure")),
      pipeline_(registry,
                compress::DecodePipelineConfig{config_.decode_workers,
                                               config_.depth,
                                               config_.segment_size}),
      sink_(std::move(sink)) {
  if (config_.read_chunk == 0) config_.read_chunk = 64 * 1024;
  if (config_.max_reads_per_event == 0) config_.max_reads_per_event = 1;
  conn_.set_nonblocking(true);
  loop_.add(conn_.fd(), EpollLoop::kRead,
            [this](std::uint32_t ev) { on_event(ev); });
  watched_ = true;
}

AsyncReceiver::~AsyncReceiver() { unwatch(); }

void AsyncReceiver::check() const {
  if (error_ != nullptr) std::rethrow_exception(error_);
}

void AsyncReceiver::pause() {
  if (watched_ && !paused_) loop_.modify(conn_.fd(), 0);
  paused_ = true;
}

void AsyncReceiver::resume() {
  if (watched_ && paused_) loop_.modify(conn_.fd(), EpollLoop::kRead);
  paused_ = false;
}

void AsyncReceiver::on_event(std::uint32_t) {
  // EPOLLERR/EPOLLHUP fall through to recv(), which reports the precise
  // condition (0 = orderly EOF, ECONNRESET = abort) — no separate path.
  if (done_ || paused_) return;
  for (std::size_t i = 0; i < config_.max_reads_per_event; ++i) {
    common::MutableByteSpan span;
    if (error_ == nullptr) {
      span = pipeline_.recv_span(config_.read_chunk);
    } else {
      // The stream already failed (sticky), but the peer must not wedge
      // behind a full kernel buffer: keep reading into private scratch
      // until EOF, bypassing the pipeline entirely.
      if (discard_scratch_.size() < config_.read_chunk) {
        discard_scratch_.resize(config_.read_chunk);
      }
      span = common::MutableByteSpan(discard_scratch_.data(),
                                     config_.read_chunk);
    }
    const ssize_t n = ::recv(conn_.fd(), span.data(), span.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail_stream(errno_error("recv", errno), /*fatal=*/true);
      return;
    }
    if (n == 0) {
      finish_stream();
      return;
    }
    m_wire_bytes_.add(static_cast<std::uint64_t>(n));
    if (config_.wire_tap) {
      config_.wire_tap(
          common::ByteSpan(span.data(), static_cast<std::size_t>(n)));
    }
    if (error_ != nullptr) continue;  // discard mode: just keep the fd moving
    pipeline_.commit(static_cast<std::size_t>(n));
    drain();
    if (done_ || paused_ || error_ != nullptr) return;
    if (config_.max_pending_wire != 0 &&
        pipeline_.pending() > config_.max_pending_wire) {
      // Undelivered wire outran the configured bound: yield this callback
      // (level-triggered readiness re-fires next poll). Sustained overrun
      // fills the kernel buffer and the sender sees EAGAIN backpressure.
      m_backpressure_.add();
      return;
    }
  }
}

void AsyncReceiver::drain() {
  try {
    for (;;) {
      const std::optional<compress::DecodedBlock> block =
          pipeline_.next_block();
      if (!block.has_value()) break;
      counters_.record(block->data.size(),
                       compress::kFrameHeaderSize + block->header.comp_size,
                       block->header.level);
      if (sink_) sink_(block->data, block->header);
    }
  } catch (...) {
    // CodecError from a damaged wire, or a sink failure: sticky, in the
    // serial-equivalent position (decode_pipeline guarantees the former).
    // Non-fatal — the socket is fine, so stay in drain-and-discard mode.
    fail_stream(std::current_exception(), /*fatal=*/false);
  }
}

void AsyncReceiver::finish_stream() {
  eof_ = true;
  if (error_ == nullptr) {
    drain();  // deliver what the final bytes completed
    if (done_) return;  // drain() failed the stream and finalized it
  }
  pending_at_eof_ = pipeline_.pending();
  done_ = true;
  if (error_ == nullptr) m_eofs_.add();
  unwatch();
}

void AsyncReceiver::fail_stream(std::exception_ptr error, bool fatal) {
  if (error_ == nullptr) {
    error_ = std::move(error);
    m_errors_.add();
  }
  if (!fatal && !eof_) return;  // stay watched: drain-and-discard to EOF
  pending_at_eof_ = pipeline_.pending();
  done_ = true;
  unwatch();
}

void AsyncReceiver::unwatch() {
  if (watched_) {
    loop_.remove(conn_.fd());
    watched_ = false;
  }
}

// ---------------------------------------------------------------------------
// AsyncTransport

AsyncSender& AsyncTransport::add_sender(TcpConnection conn,
                                        AsyncSender::Config config) {
  return senders_.emplace_back(loop_, std::move(conn), registry_,
                               std::move(config), metrics_);
}

AsyncReceiver& AsyncTransport::add_receiver(TcpConnection conn,
                                            AsyncReceiver::Config config,
                                            AsyncReceiver::BlockSink sink) {
  return receivers_.emplace_back(loop_, std::move(conn), registry_,
                                 std::move(config), std::move(sink),
                                 metrics_);
}

void AsyncTransport::run_receivers() {
  loop_.run_until([this] { return receivers_done(); });
}

bool AsyncTransport::receivers_done() const {
  for (const AsyncReceiver& r : receivers_) {
    if (!r.done()) return false;
  }
  return true;
}

}  // namespace strato::core
