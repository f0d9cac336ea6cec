// link_dynamic: the paper's mechanism in real time.
//
// A CompressingWriter driven by AdaptivePolicy (default AdaptiveConfig,
// 250 ms window) writes HIGH data into a ThrottledPipe behind a 64 MiB/s
// LinkShare; a reader thread decodes with DecompressingReader. There is no
// warm-up: the controller starts at NO, probes its way to LIGHT and keeps
// probing with exponential backoff, as it would for a user.
//
// The writer reaches about 64 MiB/s at NO and 400 at LIGHT, both bound by
// the link (LIGHT compresses this data to about 16%), and about 150 at
// MEDIUM, bound by its encoder: goodput follows the level the policy picks.
// The stream runs alone and its data class does not change (README.md).
// With a second writer on the token bucket, wake-up jitter moved this
// stream's share enough to put LIGHT and MEDIUM inside Algorithm 1's 20%
// dead band. With alternating HIGH and LOW phases, a probe that coincided
// with a phase change locked the controller onto MEDIUM for most of a run,
// in about one run in seven. Either spread the metrics over 25%.
#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "compress/codec.h"
#include "compress/registry.h"
#include "core/policy.h"
#include "core/stream.h"
#include "core/throttled_pipe.h"
#include "suite.h"
#include "trace.h"

namespace strato::bench_suite {

namespace {

using common::ByteSpan;

constexpr double kLinkBytesPerS = 64.0 * kMiB;
constexpr std::size_t kBlock = compress::kDefaultBlockSize;
/// The stream is measured in segments; the end-to-end metrics are medians
/// over segments, so the cold start and the odd probe to a slower level
/// show in one segment rather than in the run's number.
constexpr double kSegmentMiB = 256.0;
/// The pool cycled through the stream (blocks are independent, so repeating
/// them does not change what the codec sees).
constexpr double kPoolMiB = 32.0;
/// Wall time of one segment on the reference VM; sizes the work.
constexpr double kSegmentNominalS = 0.65;
constexpr std::size_t kReadChunk = 256 * 1024;

/// Decorating ByteSink: times ThrottledPipe::write as the link layer.
class TimedSink final : public core::ByteSink {
 public:
  TimedSink(core::ThrottledPipe& pipe, ThreadTrace& tr)
      : pipe_(pipe), tr_(tr) {}
  void write(ByteSpan data) override {
    auto span = tr_.span(kLinkWait);
    pipe_.write(data);
  }
  void flush() override { pipe_.flush(); }

 private:
  core::ThrottledPipe& pipe_;
  ThreadTrace& tr_;
};

/// Decorating CompressionPolicy: times on_block and counts level switches.
class TimedPolicy final : public core::CompressionPolicy {
 public:
  explicit TimedPolicy(ThreadTrace& tr)
      : inner_(core::AdaptiveConfig{}, common::SimTime::ms(250)), tr_(tr) {}
  [[nodiscard]] int level() const override { return inner_.level(); }
  void on_block(std::size_t raw_bytes, common::SimTime now) override {
    auto span = tr_.span(kPolicyOnBlock);
    const int before = inner_.level();
    inner_.on_block(raw_bytes, now);
    if (inner_.level() != before) ++switches_;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }

 private:
  core::AdaptivePolicy inner_;
  ThreadTrace& tr_;
  std::uint64_t switches_ = 0;
};

/// Pool, link, pipe, writer and the reader thread. The writer runs on the
/// constructing thread.
struct LinkStack {
  common::Bytes pool;
  std::size_t segment = 0;  // blocks per segment
  std::size_t total = 0;    // blocks in the run

  std::shared_ptr<core::LinkShare> link =
      std::make_shared<core::LinkShare>(kLinkBytesPerS);
  core::ThrottledPipe pipe{link};
  common::SteadyClock clock;
  TimedSink sink;
  TimedPolicy policy;
  core::CompressingWriter writer;

  // Reader-thread state; read after the reader is joined.
  std::vector<std::int64_t> delivered_at;
  std::uint64_t delivered = 0;
  std::uint64_t bad = 0;
  std::string reader_error;
  double reader_cpu_end = 0.0;

  ThreadTrace& reader_tr;
  std::thread reader;  // last: starts once everything it uses exists

  LinkStack(const Options& opt, ThreadTrace& writer_tr, ThreadTrace& rtr)
      : sink(pipe, writer_tr),
        policy(writer_tr),
        writer(sink, compress::CodecRegistry::standard(), policy, clock,
               kBlock),
        reader_tr(rtr) {
    const auto segments = static_cast<std::size_t>(
        std::max(1.0, std::round(opt.seconds / kSegmentNominalS)));
    auto blocks = [](double mib) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(mib * kMiB / kBlock));
    };
    segment = blocks(kSegmentMiB * opt.shrink(kSegmentNominalS));
    total = segments * segment;
    pool = make_pool(corpus::Compressibility::kHigh, opt.seed,
                     std::min(segment, blocks(kPoolMiB)) * kBlock);
    delivered_at.assign(total, 0);

    reader = std::thread([this] { read(); });
  }

  ~LinkStack() {
    pipe.close();
    if (reader.joinable()) reader.join();
  }

  LinkStack(const LinkStack&) = delete;
  LinkStack& operator=(const LinkStack&) = delete;

  [[nodiscard]] ByteSpan block(std::size_t i) const {
    return ByteSpan(pool.data() + (i % (pool.size() / kBlock)) * kBlock,
                    kBlock);
  }

  void read() {
    core::DecompressingReader decoder(compress::CodecRegistry::standard());
    try {
      for (;;) {
        common::Bytes chunk;
        {
          auto span = reader_tr.span(kReaderReadWait);
          chunk = pipe.read(kReadChunk);
        }
        if (chunk.empty()) break;
        auto span = reader_tr.span(kReaderDecode);
        decoder.feed(chunk);
        while (auto b = decoder.next_block_view()) {
          auto check = reader_tr.span(kVerify);
          const std::uint64_t i = delivered++;
          if (i >= total || b->data.size() != kBlock ||
              std::memcmp(b->data.data(), block(i).data(), kBlock) != 0) {
            ++bad;
            continue;
          }
          delivered_at[i] = now_ns();
        }
      }
    } catch (const std::exception& e) {
      reader_error = e.what();
      // Keep the writer from blocking on a full pipe.
      while (!pipe.read(kReadChunk).empty()) {
      }
    }
    reader_cpu_end = thread_cpu_s(pthread_self());
  }
};

}  // namespace

RunResult run_link_dynamic(const Options& opt) {
  RunResult r;
  Tracer tracer(opt.traced());
  ThreadTrace& writer_tr = tracer.thread("writer");
  ThreadTrace& reader_tr = tracer.thread("reader");
  const auto st = set_up_repeatedly<LinkStack>(r, opt.setup_budget_s(), opt,
                                               writer_tr, reader_tr);

  const std::size_t segment = st->segment;
  std::vector<std::int64_t> written_at(st->total);
  std::vector<double> segment_cpu;  // process CPU at each segment start, T1
  ProcessWindow process;
  process.start();
  const double writer_cpu0 = thread_cpu_s(pthread_self());
  const double reader_cpu0 = thread_cpu_s(st->reader.native_handle());
  tracer.open_window();
  for (std::size_t i = 0; i < st->total; ++i) {
    if (i % segment == 0) segment_cpu.push_back(process_cpu_s());
    written_at[i] = now_ns();
    auto span = writer_tr.span(kWriterWrite);
    st->writer.write(st->block(i));
  }
  {
    auto span = writer_tr.span(kWriterFlush);
    st->writer.flush();
    st->pipe.close();
  }
  {
    auto span = writer_tr.span(kJoin);
    st->reader.join();
  }
  tracer.close_window();
  process.stop();
  segment_cpu.push_back(process_cpu_s());
  const double writer_cpu = thread_cpu_s(pthread_self()) - writer_cpu0;
  const double reader_cpu = st->reader_cpu_end - reader_cpu0;

  if (!st->reader_error.empty()) r.fail("reader: " + st->reader_error);
  r.attempted = st->total;
  r.failed = std::min<std::uint64_t>(
      st->total,
      st->bad + (st->delivered < st->total ? st->total - st->delivered : 0));
  if (r.failed > 0) {
    r.fail("blocks not delivered intact");
    return r;
  }

  std::vector<double> latency_ms(st->total);
  for (std::size_t i = 0; i < st->total; ++i) {
    latency_ms[i] = ns_to_ms(st->delivered_at[i] - written_at[i]);
  }
  const double segment_mib = static_cast<double>(segment * kBlock) / kMiB;
  std::vector<double> goodput;
  std::vector<double> latency_p50;
  std::vector<double> cpu;
  for (std::size_t first = 0; first < st->total; first += segment) {
    const std::size_t last = first + segment - 1;
    goodput.push_back(segment_mib /
                      ns_to_s(st->delivered_at[last] - written_at[first]));
    latency_p50.push_back(median(std::vector<double>(
        latency_ms.begin() + static_cast<std::ptrdiff_t>(first),
        latency_ms.begin() + static_cast<std::ptrdiff_t>(last + 1))));
    const std::size_t k = first / segment;
    cpu.push_back((segment_cpu[k + 1] - segment_cpu[k]) /
                  (segment_mib / 1024.0));
  }
  const double raw = static_cast<double>(st->total * kBlock);
  const double gib = raw / kGiB;
  r.metrics["goodput_mib_s"] = median(goodput);
  r.metrics["latency_p50_ms"] = median(latency_p50);
  r.metrics["cpu_s_per_gib"] = median(cpu);
  report_latency(latency_ms, r);

  const std::vector<std::uint64_t> levels = st->writer.blocks_per_level();
  for (std::size_t l = 0; l < levels.size(); ++l) {
    r.layers["core.policy.blocks_level" + std::to_string(l)] =
        static_cast<double>(levels[l]);
  }
  r.layers["core.policy.switches"] = static_cast<double>(st->policy.switches());
  r.layers["compress.wire_ratio"] =
      static_cast<double>(st->writer.framed_bytes()) /
      static_cast<double>(st->writer.raw_bytes());
  r.layers["compress.pipeline.worker_cpu_s_per_gib"] =
      (process.cpu_s - writer_cpu - reader_cpu) / gib;
  r.layers["core.writer.cpu_s_per_gib"] = writer_cpu / gib;
  r.layers["core.reader.cpu_s_per_gib"] = reader_cpu / gib;
  process.report_switches(r);
  if (tracer.enabled()) {
    r.layers["core.writer.write_s_per_gib"] =
        tracer.total_s(kWriterWrite) / gib;
    r.layers["core.writer.self_s_per_gib"] = tracer.self_s(kWriterWrite) / gib;
    r.layers["core.link.wait_s_per_gib"] = tracer.total_s(kLinkWait) / gib;
    r.layers["core.policy.on_block_s_per_gib"] =
        tracer.total_s(kPolicyOnBlock) / gib;
    r.layers["core.reader.read_wait_s_per_gib"] =
        tracer.total_s(kReaderReadWait) / gib;
    r.layers["core.reader.decode_s_per_gib"] =
        tracer.self_s(kReaderDecode) / gib;
    r.layers["bench.verify_s_per_gib"] = tracer.total_s(kVerify) / gib;
    const auto most_used = static_cast<int>(
        std::max_element(levels.begin(), levels.end()) - levels.begin());
    const std::size_t side = std::min<std::size_t>(st->pool.size(), 16 << 20);
    codec_side_pass(ByteSpan(st->pool.data(), side), most_used, kBlock, r);
    tracer.report(opt.trace_path, r);
  }
  return r;
}

}  // namespace strato::bench_suite
