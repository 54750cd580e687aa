// Tests for histogram, table rendering and string utilities.
#include <gtest/gtest.h>

#include <istream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "msropm/util/histogram.hpp"
#include "msropm/util/strings.hpp"
#include "msropm/util/table.hpp"
#include "msropm/util/tokenizer.hpp"

namespace {

using msropm::util::Histogram;
using msropm::util::TextTable;

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);   // bin 0
  h.add(0.3);   // bin 1
  h.add(0.55);  // bin 2
  h.add(0.9);   // bin 3
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(5.0);
  h.add(1.0);  // exactly hi clamps to last bin
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(0.0, 2.0, 4);
  const auto [lo, hi] = h.bin_range(1);
  EXPECT_DOUBLE_EQ(lo, 0.5);
  EXPECT_DOUBLE_EQ(hi, 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(1), 0.75);
  EXPECT_THROW((void)h.bin_range(4), std::out_of_range);
}

TEST(Histogram, ModeAndMax) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.75);
  h.add(0.8);
  h.add(0.2);
  EXPECT_EQ(h.max_count(), 2u);
  EXPECT_EQ(h.mode_bin(), 1u);
}

TEST(Histogram, AsciiRenderHasOneRowPerBin) {
  Histogram h(0.0, 1.0, 5);
  h.add(0.5);
  const auto art = h.render_ascii(10);
  std::size_t rows = 0;
  for (char ch : art) {
    if (ch == '\n') ++rows;
  }
  EXPECT_EQ(rows, 5u);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const auto out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvQuotesSpecials) {
  TextTable t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "x"});
  const auto csv = t.render_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Format, Doubles) {
  EXPECT_EQ(msropm::util::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(msropm::util::format_double(1.0, 0), "1");
}

TEST(Format, Scientific) {
  const auto s = msropm::util::format_sci(4.95e29, 2);
  EXPECT_NE(s.find("4.95e+29"), std::string::npos);
}

TEST(Format, PowerExpression) {
  EXPECT_EQ(msropm::util::format_pow(4, 2116), "4^2116");
}

TEST(Strings, SplitBasic) {
  const auto parts = msropm::util::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepEmpty) {
  const auto parts = msropm::util::split("a,,b", ',', /*skip_empty=*/false);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

// Drains the tokenizer: one token list per line.
std::vector<std::vector<std::string>> tokenize(std::string_view text) {
  std::vector<std::vector<std::string>> lines;
  msropm::util::LineTokenizer tok(text);
  while (tok.next_line()) {
    EXPECT_EQ(tok.line_no(), lines.size() + 1);
    auto& line = lines.emplace_back();
    for (auto t = tok.next_token(); !t.empty(); t = tok.next_token()) {
      line.emplace_back(t);
    }
  }
  return lines;
}

TEST(LineTokenizer, SplitsOnWhitespaceRuns) {
  const auto lines = tokenize("  p edge\t49   156 ");
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_EQ(lines[0].size(), 4u);
  EXPECT_EQ(lines[0][0], "p");
  EXPECT_EQ(lines[0][3], "156");
}

TEST(LineTokenizer, LinesEndAtNewlineOnly) {
  using Lines = std::vector<std::vector<std::string>>;
  EXPECT_EQ(tokenize(""), Lines{});
  EXPECT_EQ(tokenize("\n"), (Lines{{}}));
  EXPECT_EQ(tokenize("a\n\nb"), (Lines{{"a"}, {}, {"b"}}));
  EXPECT_EQ(tokenize("a b\r\nc\r\n"), (Lines{{"a", "b"}, {"c"}}));
  // A lone CR, VT or FF separates tokens but does not end the line.
  EXPECT_EQ(tokenize("a\rb\vc\fd"), (Lines{{"a", "b", "c", "d"}}));
  EXPECT_EQ(tokenize(std::string_view("a\0b c", 5)),
            (Lines{{std::string("a\0b", 3), "c"}}));
}

// A stream that fails part way keeps only the lines read in full.
TEST(LineTokenizer, ReadCompleteLinesDropsALineCutShort) {
  struct FailAfter : std::streambuf {
    std::string text;
    std::size_t pos = 0;
    std::size_t limit = 0;
    int_type underflow() override {
      if (pos >= text.size()) return traits_type::eof();
      if (pos >= limit) throw std::ios_base::failure("device error");
      return traits_type::to_int_type(text[pos]);
    }
    int_type uflow() override {
      const int_type c = underflow();
      if (!traits_type::eq_int_type(c, traits_type::eof())) ++pos;
      return c;
    }
  };
  FailAfter buf;
  buf.text = "p edge 2 1\ne 1 2\n";
  buf.limit = 14;  // inside the second line
  std::istream in(&buf);
  EXPECT_EQ(msropm::util::read_complete_lines(in), "p edge 2 1\n");
  EXPECT_TRUE(in.bad());

  std::istringstream whole("a\nb");
  EXPECT_EQ(msropm::util::read_complete_lines(whole), "a\nb\n");
  EXPECT_FALSE(whole.bad());
}

TEST(Strings, Trim) {
  EXPECT_EQ(msropm::util::trim("  hi \t"), "hi");
  EXPECT_EQ(msropm::util::trim(""), "");
  EXPECT_EQ(msropm::util::trim(" \n "), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(msropm::util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(msropm::util::join({}, ","), "");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(msropm::util::parse_int("42").value(), 42);
  EXPECT_EQ(msropm::util::parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(msropm::util::parse_int("4x").has_value());
  EXPECT_FALSE(msropm::util::parse_int("").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(msropm::util::parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(msropm::util::parse_double("1e3").value(), 1000.0);
  EXPECT_FALSE(msropm::util::parse_double("abc").has_value());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(msropm::util::starts_with("p edge", "p "));
  EXPECT_FALSE(msropm::util::starts_with("e 1 2", "p"));
}

}  // namespace
