// Checked parsing of numeric command-line values.
//
// std::strtoull turns "abc" into 0 and "-1" into 2^64-1 without a word, so
// a mistyped flag silently runs a different experiment.  Every CLI parses
// its numeric flags through here instead and reports the error.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace allarm {

/// Parses `text` as a decimal unsigned integer no larger than `max`.  Only
/// digits are accepted: no sign, no whitespace, no trailing characters.
/// Throws std::invalid_argument "<flag>: expected a number, got '<text>'"
/// (or "... a number up to <max> ..." when out of range).
std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max());

/// parse_u64 for 32-bit fields: values above 2^32 - 1 are rejected, never
/// truncated.
inline std::uint32_t parse_u32(const std::string& flag,
                               const std::string& text) {
  return static_cast<std::uint32_t>(
      parse_u64(flag, text, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace allarm
