#include "msropm/util/strings.hpp"

#include <cctype>
#include <charconv>

namespace msropm::util {

std::vector<std::string> split(std::string_view s, char delim, bool skip_empty) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(delim, start);
    const std::string_view token =
        s.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                      : end - start);
    if (!token.empty() || !skip_empty) out.emplace_back(token);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<long long> parse_int(std::string_view s) noexcept {
  s = trim(s);
  long long value = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  double value = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) return std::nullopt;
  return value;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace msropm::util
