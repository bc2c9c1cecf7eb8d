// Small string helpers shared across IO and the harness.

#ifndef LOOM_UTIL_STRING_UTIL_H_
#define LOOM_UTIL_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace loom {
namespace util {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// The C locale's isspace set: ' ', \t, \n, \v, \f, \r.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Returns the next run of non-whitespace bytes in `*rest` and advances
/// `*rest` past it; empty once only whitespace is left. Splits fields the
/// way operator>> does. Inline: it runs once per field of every text
/// record read.
inline std::string_view NextField(std::string_view* rest) {
  const char* p = rest->data();
  const char* end = p + rest->size();
  while (p != end && IsSpace(*p)) ++p;
  const char* begin = p;
  while (p != end && !IsSpace(*p)) ++p;
  *rest = std::string_view(p, static_cast<size_t>(end - p));
  return std::string_view(begin, static_cast<size_t>(p - begin));
}

/// True if `s` begins with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Human-readable count: 1234567 -> "1.2M", 12345 -> "12.3k".
std::string HumanCount(uint64_t n);

/// Parses a FINITE double from the whole of `s` (no trailing junk) into
/// `*out`; returns false otherwise. "nan"/"inf" are rejected: std::stod
/// happily produces them, and NaN then slips through every `x < lo`/`x > hi`
/// range check downstream (ordered comparisons on NaN are always false) —
/// the exact hole that let hdrf:lambda=nan corrupt placements. Every CLI
/// flag and file field that feeds a double must come through here or
/// EngineOptions.
bool ParseFiniteDouble(const std::string& s, double* out);

/// Parses the whole of `s` as an unsigned decimal that fits `T` into `*out`;
/// returns false (leaving `*out` untouched) otherwise. Digits only: no sign,
/// no whitespace, no "0x", no trailing junk, and no silent wrap — "-1" and
/// "4294967296" are both rejected for a uint32_t. The integer fields of the
/// text graph and edge-stream formats, the serve protocol and edge
/// assignment files go through here.
template <typename T>
bool ParseDecimal(std::string_view s, T* out) {
  static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                "ParseDecimal parses unsigned integers");
  if (s.empty()) return false;
  T v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace util
}  // namespace loom

#endif  // LOOM_UTIL_STRING_UTIL_H_
