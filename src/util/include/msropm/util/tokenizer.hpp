#pragma once
// Line tokenizer over one in-memory text buffer: the shared front end of the
// DIMACS graph reader (graph/io.hpp) and the DIMACS CNF reader (sat/cnf.hpp).
//
// It scans the buffer in place, with no allocation per line or per token, and
// never reads outside [text.data(), text.data() + text.size()). Lines end at
// '\n' only. Within a line, tokens are separated by runs of ' ', '\t', '\v',
// '\f' and '\r' (the C locale's isspace without '\n'), so CRLF line endings
// and tab separators read like LF and spaces. Line numbers are 1-based and
// count every '\n', blank lines included; a final line without '\n' counts
// when it is non-empty. That is the numbering a std::getline loop gives.

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>

namespace msropm::util {

class LineTokenizer {
 public:
  explicit LineTokenizer(std::string_view text) noexcept
      : next_(text.data()), end_(text.data() + text.size()) {}

  /// Move to the next line; false once the buffer is exhausted.
  bool next_line() noexcept {
    if (next_ == end_) return false;
    ++line_no_;
    cur_ = next_;
    const void* nl = std::memchr(cur_, '\n', static_cast<std::size_t>(end_ - cur_));
    line_end_ = nl != nullptr ? static_cast<const char*>(nl) : end_;
    next_ = line_end_ == end_ ? end_ : line_end_ + 1;
    return true;
  }

  /// Next token of the current line; empty once the line has no more.
  [[nodiscard]] std::string_view next_token() noexcept {
    while (cur_ != line_end_ && is_blank(*cur_)) ++cur_;
    const char* start = cur_;
    while (cur_ != line_end_ && !is_blank(*cur_)) ++cur_;
    return {start, static_cast<std::size_t>(cur_ - start)};
  }

  /// 1-based number of the current line (0 before the first next_line()).
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

 private:
  static bool is_blank(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }

  const char* cur_ = nullptr;       // scan position in the current line
  const char* line_end_ = nullptr;  // the current line's '\n', or end_
  const char* next_;                // start of the next line
  const char* end_;
  std::size_t line_no_ = 0;
};

/// Read the rest of `in` into one buffer for a LineTokenizer, '\n' after
/// every line. If the stream goes bad part way (in.bad() afterwards), the
/// buffer ends after the last line read in full, as a std::getline loop
/// would have left it: the line cut short by the I/O error is dropped.
[[nodiscard]] std::string read_complete_lines(std::istream& in);

}  // namespace msropm::util
