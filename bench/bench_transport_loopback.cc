// End-to-end transport throughput over real loopback sockets: the async
// epoll transport (core::AsyncTransport) moving framed blocks from
// encode-side pipeline through the kernel to the receive-side zero-copy
// decode pipeline, on one loop thread. Rows sweep the ladder rung, the
// connection count (many conns multiplexed on one epoll loop) and the
// per-endpoint worker count. Emits one JSON object on stdout and mirrors
// it to the file named by argv[1] (the committed BENCH_transport.json
// trajectory — see scripts/check_bench.sh).
//
// Every row is differentially verified in-line: the per-block XXH64 of
// everything delivered must equal the digest of everything sent, in
// order, on every connection — identity_check reports the aggregate.
// `corpus_seed`, `blocks` and `ratio` are deterministic and must
// reproduce exactly between runs; mib_per_s carries a tolerance band.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "compress/registry.h"
#include "core/tcp.h"
#include "core/transport.h"
#include "corpus/generator.h"

namespace {

using strato::bench::appendf;
using strato::common::Bytes;
using strato::common::ByteSpan;
using strato::compress::CodecRegistry;
using strato::core::AsyncReceiver;
using strato::core::AsyncSender;
using strato::core::AsyncTransport;
using strato::core::TcpConnection;
using strato::core::TcpListener;

constexpr std::size_t kBlockSize = 128 * 1024;
constexpr std::uint64_t kCorpusSeed = 20260808;
constexpr std::size_t kTotalBytes = 16ull * 1024 * 1024;  // per row

struct RowResult {
  double secs = -1.0;
  std::size_t blocks = 0;       // total across all connections
  std::uint64_t wire_bytes = 0; // total across all connections
  bool identity = false;
};

/// One timed row: `conns` loopback pairs on a single loop, every block
/// digest-checked on delivery against its sent twin.
RowResult run_once(const CodecRegistry& registry, int level,
                   std::size_t conns, std::size_t workers) {
  RowResult r;
  const std::size_t blocks_per_conn =
      std::max<std::size_t>(kTotalBytes / conns / kBlockSize, 1);

  struct Conn {
    std::unique_ptr<strato::corpus::Generator> gen;
    Bytes block;
    std::vector<std::uint64_t> sent;
    std::uint64_t delivered = 0;
    bool ok = true;
  };
  std::vector<std::unique_ptr<Conn>> states;
  AsyncTransport transport(registry);
  for (std::size_t c = 0; c < conns; ++c) {
    auto st = std::make_unique<Conn>();
    st->gen = strato::corpus::make_generator(
        strato::corpus::Compressibility::kModerate, kCorpusSeed + c);
    st->block.resize(kBlockSize);
    states.push_back(std::move(st));
  }
  for (std::size_t c = 0; c < conns; ++c) {
    Conn& st = *states[c];
    TcpListener listener;
    auto client = TcpConnection::connect("127.0.0.1", listener.port());
    auto server = listener.accept();
    AsyncReceiver::Config rx_cfg;
    rx_cfg.decode_workers = workers;
    transport.add_receiver(
        std::move(server), rx_cfg,
        [&st](ByteSpan block, const strato::compress::FrameHeader&) {
          strato::common::Xxh64State h;
          h.update(block);
          if (st.delivered >= st.sent.size() ||
              h.digest() != st.sent[st.delivered]) {
            st.ok = false;
          }
          ++st.delivered;
        });
    AsyncSender::Config tx_cfg;
    tx_cfg.workers = workers;
    transport.add_sender(std::move(client), tx_cfg);
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < blocks_per_conn; ++b) {
    for (std::size_t c = 0; c < conns; ++c) {
      Conn& st = *states[c];
      st.gen->generate(st.block);
      strato::common::Xxh64State h;
      h.update(st.block);
      st.sent.push_back(h.digest());
      transport.sender(c).send(level, st.block);
    }
    transport.poll(0);
  }
  for (std::size_t c = 0; c < conns; ++c) transport.sender(c).finish();
  transport.run_receivers();
  const auto end = std::chrono::steady_clock::now();

  r.secs = std::chrono::duration<double>(end - start).count();
  r.identity = true;
  for (std::size_t c = 0; c < conns; ++c) {
    const Conn& st = *states[c];
    if (!st.ok || st.delivered != st.sent.size() ||
        !transport.receiver(c).clean_eof()) {
      r.identity = false;
    }
    r.blocks += st.sent.size();
  }
  r.wire_bytes = transport.metrics().counter("tx.wire_bytes").value();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const CodecRegistry& registry = CodecRegistry::standard();
  const int levels[] = {0, 2};  // stored (wire-bound), MEDIUM (codec-bound)
  struct Shape {
    std::size_t conns;
    std::size_t workers;
  };
  const Shape shapes[] = {{1, 1}, {1, 4}, {8, 1}};

  std::string json;
  appendf(json, "{\n  \"bench\": \"transport_loopback\",\n");
  appendf(json, "  \"block_size\": %zu,\n", kBlockSize);
  appendf(json, "  \"corpus\": \"MODERATE\",\n");
  appendf(json, "  \"corpus_seed\": %llu,\n",
          static_cast<unsigned long long>(kCorpusSeed));
  appendf(json, "  \"total_mib\": %.0f,\n",
          static_cast<double>(kTotalBytes) / (1024.0 * 1024.0));
  appendf(json, "  \"hardware_concurrency\": %u,\n",
          std::thread::hardware_concurrency());

  bool identity = true;
  std::string rows;
  bool first = true;
  for (const int level : levels) {
    for (const Shape& shape : shapes) {
      run_once(registry, level, shape.conns, shape.workers);  // warm-up
      const RowResult r = run_once(registry, level, shape.conns,
                                   shape.workers);
      identity = identity && r.identity;
      const double raw = static_cast<double>(r.blocks) * kBlockSize;
      const double mib = raw / (1024.0 * 1024.0);
      if (!first) appendf(rows, ",\n");
      first = false;
      appendf(rows,
              "    {\"level\": \"%s\", \"conns\": %zu, \"workers\": %zu, "
              "\"blocks\": %zu, \"ratio\": %.4f, \"seconds\": %.4f, "
              "\"mib_per_s\": %.1f}",
              registry.level(static_cast<std::size_t>(level)).label.c_str(),
              shape.conns, shape.workers, r.blocks,
              static_cast<double>(r.wire_bytes) / raw, r.secs, mib / r.secs);
    }
  }
  if (!identity) {
    std::fprintf(stderr, "transport identity FAILED\n");
    return 1;
  }
  appendf(json, "  \"identity_check\": \"pass\",\n");
  json += "  \"results\": [\n";
  json += rows;  // appendf's fixed buffer would truncate the row block
  json += "\n  ]\n}\n";
  return strato::bench::write_output(json, argc, argv);
}
