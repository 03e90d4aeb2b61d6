#pragma once
// Whole-string numeric parsing for text input boundaries (CLI flags,
// spec lines).  Unlike atoi/stoi/stoull, the full text must parse: empty
// input, trailing junk, a sign on an unsigned type and out-of-range values
// all yield nullopt, so callers can reject with an error naming the field.

#include <charconv>
#include <optional>
#include <string_view>

namespace fle {

/// from_chars over the whole string: nullopt on empty input, non-numeric
/// characters, trailing junk, or out-of-range values.
template <typename Int>
std::optional<Int> try_parse_int(std::string_view text) {
  Int value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

/// The floating-point counterpart of try_parse_int.
inline std::optional<double> try_parse_double(std::string_view text) {
  double value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

}  // namespace fle
