#include "dataflow/serdes.h"

namespace strato::dataflow {

void RecordWriterCursor::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void RecordWriterCursor::put_string(std::string_view s) {
  put_varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint64_t RecordReaderCursor::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7E) != 0)) {
      throw compress::CodecError("serdes: varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

std::string RecordReaderCursor::get_string() {
  const std::uint64_t n = get_varint();
  need(static_cast<std::size_t>(n));
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

}  // namespace strato::dataflow
