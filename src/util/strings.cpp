#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace ascdg::util {

namespace {
bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::optional<long long> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

bool is_identifier(std::string_view name) noexcept {
  if (name.empty()) return false;
  const auto head = static_cast<unsigned char>(name.front());
  if (!std::isalpha(head) && name.front() != '_') return false;
  for (const char c : name.substr(1)) {
    const auto uc = static_cast<unsigned char>(c);
    if (!std::isalnum(uc) && c != '_' && c != '.') return false;
  }
  return true;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string format_number(double value, int precision) {
  // The bytes of "%.0f" for integral values and "%.<precision>g" for
  // the rest: to_chars with a precision formats as printf does.
  char buffer[64];
  const bool integral = std::isfinite(value) && value == std::floor(value) &&
                        std::fabs(value) < 1e15;
  const std::to_chars_result printed =
      integral ? std::to_chars(buffer, buffer + sizeof buffer, value,
                               std::chars_format::fixed, 0)
               : std::to_chars(buffer, buffer + sizeof buffer, value,
                               std::chars_format::general, precision);
  return std::string(buffer, printed.ptr);
}

std::string format_percent(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f%%", fraction * 100.0);
  return buffer;
}

std::string format_count(std::size_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace ascdg::util
