// Deterministic mutants of a valid text input, for the decoder fuzz tests
// (WAL redo records, fault specs, restart journals).  No libFuzzer: a
// fixed seed makes the same mutants every run, so a failure names its
// mutant and repeats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpa::fuzz {

inline std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Mutants of `p`: truncated at every byte, flipped at every bit, each
/// digit swapped for a letter, sign or blank, each field dropped or
/// repeated (fields end at any byte of `separators`), and spliced with
/// each of `others`: appended, appended after a blank, and three seeded
/// cuts joined.  `rng` is a xorshift state the splices advance.
inline std::vector<std::string> mutants_of(const std::string& p,
                                           const std::vector<std::string>& others,
                                           std::string_view separators,
                                           std::uint64_t& rng) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n < p.size(); ++n) out.push_back(p.substr(0, n));
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = p;
      m[i] = static_cast<char>(m[i] ^ (1 << bit));
      out.push_back(std::move(m));
    }
    if (p[i] >= '0' && p[i] <= '9') {
      for (const char c : {'a', 'Z', '-', '+', ' '}) {
        std::string m = p;
        m[i] = c;
        out.push_back(std::move(m));
      }
    }
  }
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (separators.find(p[i]) != std::string_view::npos) starts.push_back(i + 1);
  }
  starts.push_back(p.size() + 1);
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const std::size_t begin = starts[k];
    const std::size_t len = starts[k + 1] - begin;  // with its separator
    out.push_back(p.substr(0, begin) + p.substr(std::min(p.size(), begin + len)));
    const std::string field = p.substr(begin, len - 1);
    const char sep = begin + len - 1 < p.size() ? p[begin + len - 1] : ' ';
    out.push_back(p.substr(0, begin) + field + sep + p.substr(begin));
  }
  for (const std::string& q : others) {
    out.push_back(p + q);
    out.push_back(p + " " + q);
    for (int k = 0; k < 3; ++k) {
      const std::size_t i = xorshift(rng) % (p.size() + 1);
      const std::size_t j = xorshift(rng) % (q.size() + 1);
      out.push_back(p.substr(0, i) + q.substr(j));
    }
  }
  return out;
}

}  // namespace cpa::fuzz
