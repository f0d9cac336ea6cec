// One output format for the JSON benches.
//
// Every field a bench prints goes through a call that is its tag:
//   det     compared exactly: seeds, sizes, counts, ratios, digests, row
//           labels and identity_check;
//   timing  a higher-is-better rate, compared within BENCH_TOL and only
//           against a baseline recorded at the same hardware_concurrency;
//   info    printed but never compared: seconds, speedups, wall time, the
//           host's SIMD ISA and hardware_concurrency.
// The writer adds a top-level "fields" map (name -> "det" or "timing")
// built from those same calls, so scripts/check_bench.sh gates any bench
// from its committed BENCH_<name>.json alone, without a schema of its own.
//
// Top-level fields come first; each row() then opens the next entry of
// "results". The gate compares rows by position, so a bench emits them in
// a fixed loop order. A name keeps one tag wherever it appears.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace strato::bench {

class JsonWriter {
 public:
  explicit JsonWriter(std::string_view bench) { det("bench", bench); }

  void det(std::string_view name, std::string_view value) {
    add(name, kDet, quoted(value));
  }
  void det(std::string_view name, std::uint64_t value) {
    add(name, kDet, std::to_string(value));
  }
  void det(std::string_view name, double value, int decimals) {
    add(name, kDet, fixed(value, decimals));
  }
  void timing(std::string_view name, double value, int decimals) {
    add(name, kTiming, fixed(value, decimals));
  }
  void info(std::string_view name, std::string_view value) {
    add(name, kInfo, quoted(value));
  }
  void info(std::string_view name, std::uint64_t value) {
    add(name, kInfo, std::to_string(value));
  }
  void info(std::string_view name, double value, int decimals) {
    add(name, kInfo, fixed(value, decimals));
  }

  /// Open the next entry of "results"; later fields go into it.
  void row() { rows_.emplace_back(); }

  /// Print the JSON to stdout and, when the bench was given an output path
  /// as argv[1], write the identical bytes there. Returns an exit code.
  int write(int argc, char** argv) const {
    const std::string out = json();
    std::fwrite(out.data(), 1, out.size(), stdout);
    if (argc > 1) {
      std::FILE* f = std::fopen(argv[1], "w");
      if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot open %s for writing\n", argv[1]);
        return 1;
      }
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
    }
    return 0;
  }

 private:
  static constexpr std::string_view kDet = "det";
  static constexpr std::string_view kTiming = "timing";
  static constexpr std::string_view kInfo = "info";

  // Values are program constants and labels, so nothing needs escaping.
  static std::string quoted(std::string_view s) {
    return "\"" + std::string(s) + "\"";
  }
  static std::string fixed(double value, int decimals) {
    const int n = std::snprintf(nullptr, 0, "%.*f", decimals, value);
    std::string s(static_cast<std::size_t>(n), '\0');
    std::snprintf(s.data(), s.size() + 1, "%.*f", decimals, value);
    return s;
  }

  void add(std::string_view name, std::string_view tag, std::string value) {
    const auto known = std::find_if(
        tags_.begin(), tags_.end(),
        [name](const auto& entry) { return entry.first == name; });
    if (known == tags_.end()) {
      tags_.emplace_back(name, tag);
    } else if (known->second != tag) {
      throw std::logic_error("bench field " + std::string(name) +
                             " tagged both " + std::string(known->second) +
                             " and " + std::string(tag));
    }
    auto& dest = rows_.empty() ? top_ : rows_.back();
    dest.push_back(quoted(name) + ": " + value);
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{\n";
    for (const std::string& field : top_) out += "  " + field + ",\n";
    out += "  \"fields\": {";
    const char* sep = "";
    for (const auto& [name, tag] : tags_) {
      if (tag == kInfo) continue;
      out += sep + quoted(name) + ": " + quoted(tag);
      sep = ", ";
    }
    out += "},\n  \"results\": [";
    sep = "\n    {";
    for (const auto& row : rows_) {
      out += sep;
      for (std::size_t i = 0; i < row.size(); ++i) {
        out += (i > 0 ? ", " : "") + row[i];
      }
      out += "}";
      sep = ",\n    {";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  std::vector<std::string> top_;                // "name": value
  std::vector<std::vector<std::string>> rows_;  // one per row()
  std::vector<std::pair<std::string, std::string_view>> tags_;  // first use
};

}  // namespace strato::bench
