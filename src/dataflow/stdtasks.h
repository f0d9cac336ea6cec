// Reusable task building blocks.
//
// Small composable Task implementations so examples and applications can
// assemble jobs without re-writing source/sink boilerplate — the shape of
// Nephele's standard vertex library.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "corpus/generator.h"
#include "dataflow/job.h"

namespace strato::dataflow {

/// Emits records produced by a generator function until it returns
/// nullopt. The factory runs on the task thread.
class FunctionSource final : public Task {
 public:
  using Producer = std::function<std::optional<common::Bytes>()>;
  explicit FunctionSource(Producer producer)
      : producer_(std::move(producer)) {}

  void run(TaskContext& ctx) override {
    while (auto rec = producer_()) {
      for (std::size_t o = 0; o < ctx.num_outputs(); ++o) {
        ctx.output(o).emit(*rec);
      }
    }
  }

 private:
  Producer producer_;
};

/// Streams `total_bytes` of a corpus class as fixed-size records.
class CorpusSource final : public Task {
 public:
  CorpusSource(corpus::Compressibility data, std::size_t total_bytes,
               std::size_t record_bytes = 8192, std::uint64_t seed = 1)
      : data_(data),
        total_(total_bytes),
        record_(record_bytes),
        seed_(seed) {}

  void run(TaskContext& ctx) override {
    auto gen = corpus::make_generator(data_, seed_);
    common::Bytes rec(record_);
    for (std::size_t sent = 0; sent < total_; sent += rec.size()) {
      const std::size_t n = std::min(record_, total_ - sent);
      gen->generate(common::MutableByteSpan(rec).subspan(0, n));
      ctx.output(0).emit(common::ByteSpan(rec.data(), n));
    }
  }

 private:
  corpus::Compressibility data_;
  std::size_t total_;
  std::size_t record_;
  std::uint64_t seed_;
};

/// Applies a function to every input record and forwards the result
/// (record-at-a-time map).
class MapTask final : public Task {
 public:
  using Fn = std::function<common::Bytes(common::Bytes)>;
  explicit MapTask(Fn fn) : fn_(std::move(fn)) {}

  void run(TaskContext& ctx) override {
    while (auto rec = ctx.input(0).next()) {
      ctx.output(0).emit(fn_(std::move(*rec)));
    }
  }

 private:
  Fn fn_;
};

/// Filters records by predicate.
class FilterTask final : public Task {
 public:
  using Pred = std::function<bool(common::ByteSpan)>;
  explicit FilterTask(Pred pred) : pred_(std::move(pred)) {}

  void run(TaskContext& ctx) override {
    while (auto rec = ctx.input(0).next()) {
      if (pred_(*rec)) ctx.output(0).emit(*rec);
    }
  }

 private:
  Pred pred_;
};

/// Consumes every input gate, counting records and bytes (visible through
/// shared atomics so the driver can read results after execute()).
class CountingSink final : public Task {
 public:
  CountingSink(std::atomic<std::uint64_t>& records,
               std::atomic<std::uint64_t>& bytes)
      : records_(records), bytes_(bytes) {}

  void run(TaskContext& ctx) override {
    for (std::size_t i = 0; i < ctx.num_inputs(); ++i) {
      while (auto rec = ctx.input(i).next()) {
        records_.fetch_add(1, std::memory_order_relaxed);
        bytes_.fetch_add(rec->size(), std::memory_order_relaxed);
      }
    }
  }

 private:
  std::atomic<std::uint64_t>& records_;
  std::atomic<std::uint64_t>& bytes_;
};

/// Invokes a callback for every record (single input gate).
class ForEachSink final : public Task {
 public:
  using Fn = std::function<void(common::ByteSpan)>;
  explicit ForEachSink(Fn fn) : fn_(std::move(fn)) {}

  void run(TaskContext& ctx) override {
    while (auto rec = ctx.input(0).next()) fn_(*rec);
  }

 private:
  Fn fn_;
};

}  // namespace strato::dataflow
