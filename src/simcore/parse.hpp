// Whole-field number parsing for the text decoders that ingest bytes from
// outside the program: WAL records, fault specs and restart journals.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace cpa::sim {

/// All of `text` as an unsigned decimal.  False for an empty field, a sign,
/// a blank, a trailing byte or overflow; strtoull and std::stoull accept
/// all but the first, and read "-1" as 2^64-1.
[[nodiscard]] inline bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace cpa::sim
