#include "corpus/entropy.h"

#include <array>
#include <cmath>
#include <cstdint>

namespace strato::corpus {

double shannon_entropy(common::ByteSpan data) {
  if (data.empty()) return 0.0;
  std::array<std::uint64_t, 256> counts{};
  for (auto b : data) ++counts[b];
  const auto n = static_cast<double>(data.size());
  double h = 0.0;
  for (auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace strato::corpus
