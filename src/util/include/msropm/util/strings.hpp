#pragma once
// Small string utilities shared by DIMACS parsers and CLI front-ends.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace msropm::util {

/// Split on a delimiter, skipping empty tokens when skip_empty is set.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim,
                                             bool skip_empty = true);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Parse integers / doubles, returning nullopt on any trailing garbage.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s) noexcept;
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// True if s starts with the given prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;

}  // namespace msropm::util
