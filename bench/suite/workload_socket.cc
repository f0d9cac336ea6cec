// socket_bulk_medium and socket_paced_stored: the epoll transport over
// loopback TCP, sender and receiver loops on separate threads.
//
// socket_bulk_medium is a closed loop. The codec kernel and the encode
// pipeline do most of the work (MEDIUM encodes at about 79 MiB/s per core
// and decodes at about 1.1 GiB/s); the transport is a small share.
//
// socket_paced_stored is an open loop of small stored blocks: per-block
// transport cost (framing, send queue, sendmsg, epoll, recv, parse,
// delivery) dominates and the codec is a memcpy. Latency runs from each
// block's due time, so a stalled sender is charged for the blocks it
// delays. Its two loops are pinned to two CPUs: left to the scheduler they
// shared one in most runs and not in others, and latency moved by a third
// between the two.
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "compress/registry.h"
#include "core/tcp.h"
#include "core/transport.h"
#include "metrics/registry.h"
#include "suite.h"
#include "trace.h"

namespace strato::bench_suite {

namespace {

using common::ByteSpan;
using core::AsyncReceiver;
using core::AsyncSender;
using core::AsyncTransport;

/// `conns` loopback connections. Senders sit on an AsyncTransport driven
/// by the constructing thread; receivers on a second AsyncTransport that a
/// thread of their own polls until every stream reaches EOF.
class LoopbackPair {
 public:
  /// Called on the receiver thread for every delivered block, in order.
  using Sink = std::function<void(std::size_t conn, ByteSpan block)>;

  LoopbackPair(std::size_t conns, const AsyncSender::Config& tx_cfg,
               const AsyncReceiver::Config& rx_cfg, Sink sink,
               ThreadTrace& rx_trace)
      : tx_(compress::CodecRegistry::standard(), &metrics_),
        rx_(compress::CodecRegistry::standard(), &metrics_),
        sink_(std::move(sink)),
        rx_trace_(rx_trace) {
    for (std::size_t c = 0; c < conns; ++c) {
      core::TcpListener listener;
      auto client = core::TcpConnection::connect("127.0.0.1", listener.port());
      auto server = listener.accept();
      rx_.add_receiver(std::move(server), rx_cfg,
                       [this, c](ByteSpan block, const compress::FrameHeader&) {
                         auto span = rx_trace_.span(kVerify);
                         sink_(c, block);
                       });
      tx_.add_sender(std::move(client), tx_cfg);
    }
    rx_thread_ = std::thread([this] { receive(); });
  }

  ~LoopbackPair() {
    stop_.store(true, std::memory_order_relaxed);
    if (rx_thread_.joinable()) rx_thread_.join();
  }

  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  AsyncTransport& tx() { return tx_; }
  AsyncSender& sender(std::size_t i) { return tx_.sender(i); }
  [[nodiscard]] std::size_t conns() const { return tx_.sender_count(); }
  [[nodiscard]] std::uint64_t counter(const char* name) {
    return metrics_.counter(name).value();
  }
  pthread_t rx_handle() { return rx_thread_.native_handle(); }
  /// Receiver-thread CPU seconds when it ended (valid after finish()).
  [[nodiscard]] double rx_cpu_at_exit() const { return rx_cpu_end_; }

  /// Finish every sender and wait for the receiver thread to see EOF on
  /// all of them. Returns an empty string when every stream ended clean.
  std::string finish(ThreadTrace& tx_trace) {
    {
      auto span = tx_trace.span(kTxFinish);
      for (std::size_t i = 0; i < conns(); ++i) sender(i).finish();
    }
    {
      auto span = tx_trace.span(kJoin);
      rx_thread_.join();
    }
    for (std::size_t i = 0; i < rx_.receiver_count(); ++i) {
      const AsyncReceiver& r = rx_.receiver(i);
      if (r.error() != nullptr) {
        try {
          r.check();
        } catch (const std::exception& e) {
          return std::string("receiver error: ") + e.what();
        }
      }
      if (!r.clean_eof()) return "receiver ended without a clean EOF";
    }
    return {};
  }

 private:
  void receive() {
    while (!stop_.load(std::memory_order_relaxed) && !rx_.receivers_done()) {
      auto span = rx_trace_.span(kRxPoll);
      rx_.poll(10);
    }
    rx_cpu_end_ = thread_cpu_s(pthread_self());
  }

  metrics::MetricRegistry metrics_;
  AsyncTransport tx_;
  AsyncTransport rx_;
  Sink sink_;
  ThreadTrace& rx_trace_;
  std::atomic<bool> stop_{false};
  double rx_cpu_end_ = 0.0;
  std::thread rx_thread_;  // last: starts once everything it uses exists
};

/// CPU of the process and of the two driven threads over the measured
/// window. The sending thread calls start() and stop(); stop() follows
/// LoopbackPair::finish().
struct SocketWindow {
  ProcessWindow process;
  double tx_cpu = 0.0;
  double rx_cpu = 0.0;

  void start(LoopbackPair& p) {
    process.start();
    tx_cpu = thread_cpu_s(pthread_self());
    rx_cpu = thread_cpu_s(p.rx_handle());
  }
  void stop(LoopbackPair& p) {
    process.stop();
    tx_cpu = thread_cpu_s(pthread_self()) - tx_cpu;
    rx_cpu = p.rx_cpu_at_exit() - rx_cpu;
  }
};

/// Layer metrics shared by both socket workloads. `raw` is the measured
/// payload and `stream_raw` everything the stream carried, warm-up
/// included, in bytes. The registry counters cover the whole stream, so
/// they repeat exactly for a given seed and length.
void report_socket_layers(const Tracer& tracer, const SocketWindow& w,
                          LoopbackPair& pair, double raw, double stream_raw,
                          RunResult& r) {
  const double gib = raw / kGiB;
  const double cpu = w.process.cpu_s;
  r.metrics["cpu_s_per_gib"] = cpu / gib;
  r.layers["core.tx.cpu_s_per_gib"] = w.tx_cpu / gib;
  r.layers["core.rx.cpu_s_per_gib"] = w.rx_cpu / gib;
  r.layers["compress.pipeline.worker_cpu_s_per_gib"] =
      (cpu - w.tx_cpu - w.rx_cpu) / gib;
  const auto count = [&](const char* name) {
    return static_cast<double>(pair.counter(name));
  };
  r.layers["core.tx.frames"] = count("tx.frames");
  r.layers["core.tx.wire_bytes"] = count("tx.wire_bytes");
  r.layers["core.tx.sendmsg_calls"] = count("tx.sendmsg_calls");
  r.layers["core.tx.backpressure_events"] = count("tx.backpressure");
  r.layers["core.rx.blocks"] = count("rx.blocks");
  r.layers["core.rx.backpressure_events"] = count("rx.backpressure");
  r.layers["compress.wire_ratio"] = count("tx.wire_bytes") / stream_raw;
  w.process.report_switches(r);
  if (!tracer.enabled()) return;
  r.layers["core.tx.send_s_per_gib"] =
      (tracer.total_s(kTxSend) + tracer.total_s(kTxSendDrive)) / gib;
  r.layers["core.tx.send_drive_s_per_gib"] = tracer.total_s(kTxSendDrive) / gib;
  r.layers["core.tx.poll_s_per_gib"] = tracer.total_s(kTxPoll) / gib;
  r.layers["core.tx.finish_s_per_gib"] = tracer.total_s(kTxFinish) / gib;
  r.layers["core.rx.poll_s_per_gib"] = tracer.total_s(kRxPoll) / gib;
  r.layers["core.rx.self_s_per_gib"] = tracer.self_s(kRxPoll) / gib;
  r.layers["bench.verify_s_per_gib"] = tracer.total_s(kVerify) / gib;
}

/// send() one block, labelling the span by whether it hit backpressure.
void traced_send(ThreadTrace& tr, AsyncSender& s, int level, ByteSpan block) {
  auto span = tr.span(kTxSend);
  const std::uint64_t bp = s.backpressure_events();
  s.send(level, block);
  if (s.backpressure_events() != bp) span.rename(kTxSendDrive);
}

// --- socket_bulk_medium -----------------------------------------------------

constexpr std::size_t kBulkBlock = 128 * 1024;
constexpr int kBulkLevel = 2;  // MEDIUM
/// Goodput of this workload on the reference VM; sizes the measured work.
constexpr double kBulkNominalMiBs = 150.0;

/// One set-up of the bulk workload: pool, connection, warm-up pass.
struct BulkStack {
  common::Bytes pool;
  std::size_t pool_blocks = 0;
  std::size_t warm_blocks = 0;
  // Receiver-thread state; read by the sender only after finish().
  std::vector<std::int64_t> delivered_at;
  std::uint64_t bad = 0;
  std::atomic<std::uint64_t> delivered{0};
  std::unique_ptr<LoopbackPair> pair;

  BulkStack(const Options& opt, std::size_t measured, ThreadTrace& tx_tr,
            ThreadTrace& rx_tr) {
    const double shrink = opt.shrink(10.0);
    const auto pool_bytes =
        static_cast<std::size_t>(std::max(4.0, 32.0 * shrink) * kMiB);
    pool = make_pool(corpus::Compressibility::kModerate, opt.seed,
                     pool_bytes / kBulkBlock * kBulkBlock);
    pool_blocks = pool.size() / kBulkBlock;
    warm_blocks = std::max<std::size_t>(
        8, static_cast<std::size_t>(16.0 * shrink * kMiB) / kBulkBlock);
    delivered_at.assign(warm_blocks + measured, 0);

    AsyncSender::Config tx_cfg;
    tx_cfg.workers = 2;
    AsyncReceiver::Config rx_cfg;
    rx_cfg.decode_workers = 1;
    pair = std::make_unique<LoopbackPair>(
        1, tx_cfg, rx_cfg,
        [this](std::size_t, ByteSpan block) { on_block(block); }, rx_tr);

    // The measured blocks follow on the same stream, so the window opens
    // on a loop in steady state. The encode pipeline only hands frames on
    // during send(), so waiting here for the warm-up to drain would stall.
    for (std::size_t b = 0; b < warm_blocks; ++b) {
      traced_send(tx_tr, pair->sender(0), kBulkLevel, slice(b));
      pair->tx().poll(0);
    }
  }

  [[nodiscard]] ByteSpan slice(std::size_t index) const {
    return ByteSpan(pool.data() + (index % pool_blocks) * kBulkBlock,
                    kBulkBlock);
  }

  void on_block(ByteSpan block) {
    const std::uint64_t i = delivered.load(std::memory_order_relaxed);
    if (i >= delivered_at.size() || block.size() != kBulkBlock ||
        std::memcmp(block.data(), slice(i).data(), kBulkBlock) != 0) {
      ++bad;
    }
    if (i < delivered_at.size()) delivered_at[i] = now_ns();
    delivered.store(i + 1, std::memory_order_release);
  }
};

// --- socket_paced_stored ----------------------------------------------------

constexpr std::size_t kPacedBlock = 8 * 1024;
constexpr std::size_t kPacedConns = 4;
constexpr std::size_t kBlocksPerTick = 32;  // 256 KiB per 1 ms tick
constexpr std::size_t kPerConnPerTick = kBlocksPerTick / kPacedConns;
constexpr std::int64_t kTickNs = 1'000'000;
constexpr int kPacedLevel = 0;  // NO: DYNAMIC's choice for LOW data

/// One set-up of the paced workload: pool, four connections on one
/// sending loop, and a warm-up stretch of the schedule.
struct PacedStack {
  common::Bytes pool;
  std::size_t pool_blocks = 0;
  std::size_t warm_ticks = 0;
  std::size_t total_ticks = 0;
  std::int64_t base_ns = 0;  // due time of tick 0
  // Receiver-thread state, per connection; read after finish().
  std::vector<std::vector<std::int64_t>> delivered_at;
  std::vector<std::uint64_t> delivered;
  std::uint64_t bad = 0;
  std::vector<double> late_ms;  // generator lateness, measured ticks
  std::string pinned;           // CPUs of the sending and receiving loops
  std::unique_ptr<LoopbackPair> pair;

  PacedStack(const Options& opt, std::size_t measured_ticks,
             ThreadTrace& tx_tr, ThreadTrace& rx_tr) {
    const double shrink = opt.shrink(10.0);
    pool = make_pool(corpus::Compressibility::kLow, opt.seed + 1,
                     static_cast<std::size_t>(std::max(1.0, 16.0 * shrink) *
                                              kMiB) /
                         kPacedBlock * kPacedBlock);
    pool_blocks = pool.size() / kPacedBlock;
    warm_ticks = std::max<std::size_t>(
        10, static_cast<std::size_t>(100.0 * shrink));
    total_ticks = warm_ticks + measured_ticks;
    delivered_at.assign(kPacedConns, std::vector<std::int64_t>(
                                         total_ticks * kPerConnPerTick));
    delivered.assign(kPacedConns, 0);
    late_ms.reserve(measured_ticks);

    AsyncSender::Config tx_cfg;  // workers = 1: encode inline
    AsyncReceiver::Config rx_cfg;
    pair = std::make_unique<LoopbackPair>(
        kPacedConns, tx_cfg, rx_cfg,
        [this](std::size_t c, ByteSpan block) { on_block(c, block); }, rx_tr);
    pinned = pin_apart(pthread_self(), pair->rx_handle());
    base_ns = now_ns() + kTickNs;
    run_ticks(0, warm_ticks, tx_tr);
  }

  /// Pool block of connection `c`'s k-th block: slot order within a tick
  /// interleaves the connections.
  [[nodiscard]] std::size_t global_index(std::size_t c, std::size_t k) const {
    return (k / kPerConnPerTick) * kBlocksPerTick +
           (k % kPerConnPerTick) * kPacedConns + c;
  }
  [[nodiscard]] ByteSpan slice(std::size_t g) const {
    return ByteSpan(pool.data() + (g % pool_blocks) * kPacedBlock,
                    kPacedBlock);
  }
  [[nodiscard]] std::int64_t due_ns(std::size_t tick) const {
    return base_ns + static_cast<std::int64_t>(tick) * kTickNs;
  }

  void on_block(std::size_t c, ByteSpan block) {
    const std::uint64_t k = delivered[c]++;
    if (k >= delivered_at[c].size() || block.size() != kPacedBlock ||
        std::memcmp(block.data(), slice(global_index(c, k)).data(),
                    kPacedBlock) != 0) {
      ++bad;
      return;
    }
    delivered_at[c][k] = now_ns();
  }

  [[nodiscard]] bool all_drained() {
    for (std::size_t c = 0; c < kPacedConns; ++c) {
      if (!pair->sender(c).drained()) return false;
    }
    return true;
  }

  /// The open-loop generator: each tick sends its 32 blocks at its due
  /// time, whatever happened to earlier ones. Between ticks it sleeps when
  /// every sender is drained and polls otherwise.
  void run_ticks(std::size_t from, std::size_t to, ThreadTrace& tr) {
    for (std::size_t t = from; t < to; ++t) {
      const std::int64_t due = due_ns(t);
      for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
        if (all_drained()) {
          auto span = tr.span(kPace);
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        } else {
          auto span = tr.span(kTxPoll);
          pair->tx().poll(0);
        }
      }
      if (t >= warm_ticks) {
        late_ms.push_back(ns_to_ms(now_ns() - due));
      }
      for (std::size_t s = 0; s < kBlocksPerTick; ++s) {
        const std::size_t c = s % kPacedConns;
        const std::size_t k = t * kPerConnPerTick + s / kPacedConns;
        traced_send(tr, pair->sender(c), kPacedLevel,
                    slice(global_index(c, k)));
      }
    }
  }
};

}  // namespace

RunResult run_socket_bulk(const Options& opt) {
  RunResult r;
  const auto measured = static_cast<std::size_t>(std::max(
      8.0, opt.seconds * kBulkNominalMiBs * kMiB / kBulkBlock));
  Tracer tracer(opt.traced());
  ThreadTrace& tx_tr = tracer.thread("tx");
  ThreadTrace& rx_tr = tracer.thread("rx");
  const auto st =
      set_up_repeatedly<BulkStack>(r, opt.setup_budget_s(), opt, measured,
                                   tx_tr, rx_tr);

  LoopbackPair& pair = *st->pair;
  std::vector<std::int64_t> sent_at(measured);
  SocketWindow w;
  w.start(pair);
  tracer.open_window();
  for (std::size_t b = 0; b < measured; ++b) {
    sent_at[b] = now_ns();
    traced_send(tx_tr, pair.sender(0), kBulkLevel,
                st->slice(st->warm_blocks + b));
    auto span = tx_tr.span(kTxPoll);
    pair.tx().poll(0);
  }
  const std::string stream_error = pair.finish(tx_tr);
  tracer.close_window();
  w.stop(pair);

  if (!stream_error.empty()) r.fail(stream_error);
  const std::uint64_t expected = st->warm_blocks + measured;
  const std::uint64_t got = st->delivered.load();
  r.attempted = measured;
  r.failed = std::min<std::uint64_t>(
      measured, st->bad + (got < expected ? expected - got : 0));
  if (r.failed > 0) {
    r.fail("blocks not delivered intact");
    return r;
  }

  std::vector<double> latency_ms(measured);
  for (std::size_t b = 0; b < measured; ++b) {
    const std::int64_t at = st->delivered_at[st->warm_blocks + b];
    latency_ms[b] = ns_to_ms(at - sent_at[b]);
  }
  const double raw = static_cast<double>(measured * kBulkBlock);
  r.metrics["goodput_mib_s"] =
      raw / kMiB / ns_to_s(st->delivered_at.back() - sent_at.front());
  r.metrics["latency_p50_ms"] = report_latency(latency_ms, r);
  report_socket_layers(tracer, w, pair, raw,
                       static_cast<double>(expected * kBulkBlock), r);
  if (tracer.enabled()) {
    const std::size_t side = std::min<std::size_t>(st->pool.size(), 16 << 20);
    codec_side_pass(ByteSpan(st->pool.data(), side), kBulkLevel, kBulkBlock, r);
    tracer.report(opt.trace_path, r);
  }
  return r;
}

RunResult run_socket_paced(const Options& opt) {
  RunResult r;
  const auto measured_ticks = static_cast<std::size_t>(
      std::max(10.0, opt.seconds * 1e9 / static_cast<double>(kTickNs)));
  Tracer tracer(opt.traced());
  ThreadTrace& tx_tr = tracer.thread("tx");
  ThreadTrace& rx_tr = tracer.thread("rx");
  const auto st =
      set_up_repeatedly<PacedStack>(r, opt.setup_budget_s(), opt,
                                    measured_ticks, tx_tr, rx_tr);

  LoopbackPair& pair = *st->pair;
  SocketWindow w;
  w.start(pair);
  tracer.open_window();
  st->run_ticks(st->warm_ticks, st->total_ticks, tx_tr);
  const std::string stream_error = pair.finish(tx_tr);
  tracer.close_window();
  w.stop(pair);

  if (!stream_error.empty()) r.fail(stream_error);
  const std::size_t measured = measured_ticks * kBlocksPerTick;
  const std::size_t per_conn = st->total_ticks * kPerConnPerTick;
  std::uint64_t missing = 0;
  for (std::size_t c = 0; c < kPacedConns; ++c) {
    if (st->delivered[c] < per_conn) missing += per_conn - st->delivered[c];
  }
  r.attempted = measured;
  r.failed = std::min<std::uint64_t>(measured, st->bad + missing);
  if (r.failed > 0) {
    r.fail("blocks not delivered intact");
    return r;
  }

  std::vector<double> latency_ms;
  latency_ms.reserve(measured);
  const std::int64_t first_due = st->due_ns(st->warm_ticks);
  std::int64_t last_delivery = first_due;
  for (std::size_t c = 0; c < kPacedConns; ++c) {
    for (std::size_t k = st->warm_ticks * kPerConnPerTick; k < per_conn; ++k) {
      const std::int64_t at = st->delivered_at[c][k];
      latency_ms.push_back(ns_to_ms(at - st->due_ns(k / kPerConnPerTick)));
      last_delivery = std::max(last_delivery, at);
    }
  }
  const double raw = static_cast<double>(measured * kPacedBlock);
  r.metrics["goodput_mib_s"] =
      raw / kMiB / ns_to_s(last_delivery - first_due);
  r.metrics["latency_p50_ms"] = report_latency(latency_ms, r);
  r.info["pinned_cpus"] = st->pinned;
  r.layers["bench.sched_late_p50_ms"] = quantile(st->late_ms, 0.5);
  r.layers["bench.sched_late_p99_ms"] = quantile(st->late_ms, 0.99);
  report_socket_layers(
      tracer, w, pair, raw,
      static_cast<double>(st->total_ticks * kBlocksPerTick * kPacedBlock), r);
  if (tracer.enabled()) {
    codec_side_pass(st->pool, kPacedLevel, kPacedBlock, r);
    tracer.report(opt.trace_path, r);
  }
  return r;
}

}  // namespace strato::bench_suite
