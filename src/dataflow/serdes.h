// Typed record serialization.
//
// Nephele tasks exchange *typed* records; our channels move raw byte
// records. This layer provides the compact primitives (LEB128 varints and
// length-prefixed strings) plus a cursor-style writer/reader so tasks can
// define record types without hand-rolling byte layouts. Used by the
// wordcount example and available to any Task implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "compress/codec.h"

namespace strato::dataflow {

/// Cursor-style serializer appending to an owned buffer.
class RecordWriterCursor {
 public:
  /// Unsigned LEB128 varint.
  void put_varint(std::uint64_t v);
  /// Length-prefixed UTF-8/opaque string.
  void put_string(std::string_view s);

  [[nodiscard]] const common::Bytes& bytes() const { return buf_; }
  [[nodiscard]] common::Bytes take() { return std::move(buf_); }
  void clear() { buf_.clear(); }

 private:
  common::Bytes buf_;
};

/// Cursor-style deserializer over a span. All getters throw CodecError on
/// truncated or malformed input.
class RecordReaderCursor {
 public:
  explicit RecordReaderCursor(common::ByteSpan data) : data_(data) {}

  std::uint64_t get_varint();
  std::string get_string();

  /// True when the whole record has been consumed.
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    // pos_ <= size always; pos_ + n would wrap for a huge length prefix.
    if (n > data_.size() - pos_) {
      throw compress::CodecError("serdes: truncated record");
    }
  }

  common::ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace strato::dataflow
