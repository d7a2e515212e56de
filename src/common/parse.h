// Strict unsigned-integer parsing for command-line flags and environment
// knobs. strtoul and friends accept a sign ("-5" wraps to a huge value),
// leading whitespace and trailing junk, and report overflow only through
// errno; casting strtod's result to an integer is undefined for NaN or an
// out-of-range value. parse_unsigned accepts base-10 digits and nothing
// else, so callers keep only their own bounds and error messages.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace binopt {

/// `text` as a base-10 unsigned integer in [lo, hi]: one or more digits, no
/// sign, whitespace, radix prefix, exponent or trailing characters, and no
/// overflow. nullopt for anything else.
[[nodiscard]] inline std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace binopt
