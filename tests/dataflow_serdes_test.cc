// Typed record serialization: varints and strings.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "dataflow/serdes.h"

namespace strato::dataflow {
namespace {

TEST(Serdes, VarintBoundaries) {
  RecordWriterCursor w;
  const std::uint64_t values[] = {
      0,       1,        127,        128,        16383, 16384,
      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 5,
      std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : values) w.put_varint(v);
  RecordReaderCursor r(w.bytes());
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serdes, VarintEncodingSizes) {
  const auto size_of = [](std::uint64_t v) {
    RecordWriterCursor w;
    w.put_varint(v);
    return w.bytes().size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 3u);
  EXPECT_EQ(size_of(UINT64_MAX), 10u);
}

TEST(Serdes, Strings) {
  RecordWriterCursor w;
  w.put_string("hello");
  w.put_string("");
  std::string big(100000, 'q');
  w.put_string(big);

  RecordReaderCursor r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), big);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serdes, MixedRecordRoundTrip) {
  common::Xoshiro256 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    RecordWriterCursor w;
    const auto id = rng();
    const auto count = rng() >> (rng() % 60);
    w.put_varint(id);
    w.put_string("key-" + std::to_string(trial));
    w.put_varint(count);

    RecordReaderCursor r(w.bytes());
    EXPECT_EQ(r.get_varint(), id);
    EXPECT_EQ(r.get_string(), "key-" + std::to_string(trial));
    EXPECT_EQ(r.get_varint(), count);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Serdes, TruncationRejected) {
  RecordWriterCursor w;
  w.put_string("some payload");
  auto bytes = w.bytes();
  bytes.pop_back();
  RecordReaderCursor r(bytes);
  EXPECT_THROW((void)r.get_string(), compress::CodecError);

  RecordReaderCursor r2({});
  EXPECT_THROW((void)r2.get_varint(), compress::CodecError);
}

TEST(Serdes, MalformedInputsRejected) {
  // 11-byte all-continuation varint overflows.
  common::Bytes evil(11, 0xFF);
  RecordReaderCursor r(evil);
  EXPECT_THROW((void)r.get_varint(), compress::CodecError);

  // Length prefix longer than the record.
  RecordWriterCursor w;
  w.put_varint(1000);
  RecordReaderCursor r2(w.bytes());
  EXPECT_THROW((void)r2.get_string(), compress::CodecError);

  // Length prefix 2^64 - 1: the bounds check must not wrap.
  RecordWriterCursor huge;
  huge.put_varint(std::numeric_limits<std::uint64_t>::max());
  RecordReaderCursor r3(huge.bytes());
  EXPECT_THROW((void)r3.get_string(), compress::CodecError);
}

TEST(Serdes, ClearAndTake) {
  RecordWriterCursor w;
  w.put_varint(7);
  const auto taken = w.take();
  EXPECT_EQ(taken.size(), 1u);
  w.put_varint(8);
  EXPECT_EQ(w.bytes().size(), 1u);
  w.clear();
  EXPECT_TRUE(w.bytes().empty());
}

}  // namespace
}  // namespace strato::dataflow
