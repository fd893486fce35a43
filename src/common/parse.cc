#include "common/parse.hh"

#include <algorithm>
#include <stdexcept>

namespace allarm {

std::uint64_t parse_u64(const std::string& flag, const std::string& text,
                        std::uint64_t max) {
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  if (!digits) {
    throw std::invalid_argument(flag + ": expected a number, got '" + text +
                                "'");
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > max / 10 || digit > max - value * 10) {
      throw std::invalid_argument(flag + ": expected a number up to " +
                                  std::to_string(max) + ", got '" + text +
                                  "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace allarm
