// FNV-1a 64: a stable, dependency-free string hash.  It routes paths to
// archive servers and digests campaign results, so its values must never
// depend on the platform or the build.
#pragma once

#include <cstdint>
#include <string_view>

namespace cpa::sim {

/// The FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;
/// The basis with its last decimal digit dropped.  Server routing and the
/// fig10 golden digest have always started from it; changing it would
/// re-route every path and re-pin the golden file.
inline constexpr std::uint64_t kFnv1a64ShortBasis = 1469598103934665603ULL;

/// Folds the bytes of `s` into the FNV-1a 64 state `h`.  Start from
/// kFnv1a64Basis; pass an earlier result to hash a concatenation.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s,
                                              std::uint64_t h = kFnv1a64Basis) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace cpa::sim
