// Tests for DIMACS .col I/O.
#include "msropm/graph/io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "msropm/graph/builders.hpp"
#include "msropm/obs/obs.hpp"
#include "msropm/util/rng.hpp"
#include "msropm/util/strings.hpp"

namespace {

using namespace msropm::graph;

// ---------------------------------------------------------------------------
// The line-by-line reader (std::getline + a whitespace split per line) that
// the buffer tokenizer replaced, frozen as the reference: the current reader
// must return the same Graph or throw the same message on every input.
// ---------------------------------------------------------------------------

std::vector<std::string> reference_split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

[[noreturn]] void reference_fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("DIMACS parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

Graph reference_read_dimacs(std::istream& in) {
  std::optional<GraphBuilder> builder;
  std::size_t declared_edges = 0;
  std::size_t edge_records = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = msropm::util::trim(line);
    if (trimmed.empty() || trimmed[0] == 'c') continue;
    const auto tokens = reference_split_ws(trimmed);
    if (tokens[0] == "p") {
      if (builder) reference_fail(line_no, "duplicate problem line");
      if (tokens.size() != 4 || (tokens[1] != "edge" && tokens[1] != "col")) {
        reference_fail(line_no, "expected 'p edge <n> <m>'");
      }
      const auto n = msropm::util::parse_int(tokens[2]);
      const auto m = msropm::util::parse_int(tokens[3]);
      if (!n || !m || *n < 0 || *m < 0) reference_fail(line_no, "bad node/edge counts");
      if (*n > (1LL << 26)) reference_fail(line_no, "node count too large");
      if (*m > (1LL << 31)) reference_fail(line_no, "edge count too large");
      builder.emplace(static_cast<std::size_t>(*n));
      declared_edges = static_cast<std::size_t>(*m);
    } else if (tokens[0] == "e") {
      if (!builder) reference_fail(line_no, "edge before problem line");
      if (tokens.size() != 3) reference_fail(line_no, "expected 'e <u> <v>'");
      const auto u = msropm::util::parse_int(tokens[1]);
      const auto v = msropm::util::parse_int(tokens[2]);
      if (!u || !v) reference_fail(line_no, "bad edge endpoints");
      const auto n = static_cast<long long>(builder->num_nodes());
      if (*u < 1 || *u > n || *v < 1 || *v > n) {
        reference_fail(line_no, "endpoint out of range");
      }
      if (*u == *v) reference_fail(line_no, "self-loop");
      builder->add_edge(static_cast<NodeId>(*u - 1), static_cast<NodeId>(*v - 1));
      ++edge_records;
    } else {
      reference_fail(line_no, "unknown record '" + tokens[0] + "'");
    }
  }
  if (in.bad()) {
    throw std::runtime_error("DIMACS parse error: I/O error while reading");
  }
  if (!builder) throw std::runtime_error("DIMACS parse error: no problem line");
  if (builder->num_edges() > declared_edges && declared_edges != 0) {
    throw std::runtime_error("DIMACS parse error: more distinct edges than declared");
  }
  if (edge_records < declared_edges) {
    throw std::runtime_error(
        "DIMACS parse error: fewer edge records than declared "
        "(truncated input?)");
  }
  return builder->build();
}

// A reader's result: the graph, or the text of the runtime_error it threw.
struct ReadOutcome {
  std::optional<Graph> graph;
  std::string error;
};

template <typename Read>
ReadOutcome outcome_of(Read read) {
  ReadOutcome out;
  try {
    out.graph = read();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same_outcome(const ReadOutcome& expected, const ReadOutcome& actual) {
  EXPECT_EQ(actual.error, expected.error);
  ASSERT_EQ(actual.graph.has_value(), expected.graph.has_value());
  if (expected.graph) {
    EXPECT_TRUE(*actual.graph == *expected.graph);
  }
}

// Both entry points of the current reader against the reference.
void expect_matches_reference(const std::string& text) {
  SCOPED_TRACE("input: \"" + text.substr(0, 80) + "\"");
  const ReadOutcome expected = outcome_of([&] {
    std::istringstream in(text);
    return reference_read_dimacs(in);
  });
  expect_same_outcome(expected, outcome_of([&] { return read_dimacs_string(text); }));
  expect_same_outcome(expected, outcome_of([&] {
    std::istringstream in(text);
    return read_dimacs(in);
  }));
}

// A stream buffer that serves `text` and then fails the read after `limit`
// characters, the way a device error surfaces: the stream goes bad().
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(std::string text, std::size_t limit)
      : text_(std::move(text)), limit_(limit) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    if (pos_ >= limit_) throw std::ios_base::failure("device error");
    return traits_type::to_int_type(text_[pos_]);
  }
  int_type uflow() override {
    const int_type c = underflow();
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++pos_;
    return c;
  }

 private:
  std::string text_;
  std::size_t limit_;
  std::size_t pos_ = 0;
};

// Every input an earlier test in this file feeds the reader, plus the
// separator and line-ending variants the tokenizer must read like the
// line-by-line reader did.
std::vector<std::string> corpus() {
  return {
      "c a comment\np edge 3 2\ne 1 2\ne 2 3\n",
      "\np col 2 1\n\ne 1 2\n",
      "p edge 2 2\ne 1 2\ne 2 1\n",
      "e 1 2\n",
      "",
      "p edge 2 0\np edge 2 0\n",
      "p edge 2\n",
      "p edge 2 1\ne 1\n",
      "p edge 2 1\ne 1 x\n",
      "p edge 2 1\nq 1 2\n",
      "p edge 2 1\ne 1 3\n",
      "p edge 2 1\ne 0 1\n",
      "p edge 2 1\ne 1 1\n",
      "p edge 3 1\ne 1 2\ne 2 3\n",
      "p edge 3 2\ne 1 2\ne 2 1\ne 2 3\ne 3 2\n",
      "p edge 4 3\ne 1 2\ne 2 3\n",
      "p edge 4 3\n",
      "p edge 999999999999999 1\ne 1 2\n",
      "p edge 3 999999999999999\ne 1 2\n",
      "p edge 99999999999999999999999999 1\ne 1 2\n",
      "p edge -1 0\n",
      "p edge 3 -1\n",
      "p edge 3 1\ne 1 99999999999999999999999999\n",
      write_dimacs_string(kings_graph(4, 5), "kings 4x5"),
      // CRLF line endings.
      "c crlf\r\np edge 3 2\r\ne 1 2\r\ne 2 3\r\n",
      "p edge 3 2\r\ne 1 2\r\ne 2 x\r\n",
      // Tab, vertical-tab and form-feed separators.
      "p\tedge\t3\t2\ne\t1 2\n \te 2\t\t3\n",
      "p edge\v3\f2\ne 1 2\ne 2 3\n",
      // Whitespace-only lines, before and after the header.
      "   \n\t\np edge 3 1\n \t \r\ne 1 3\n  \n",
      // No final newline.
      "p edge 3 2\ne 1 2\ne 2 3",
      "p edge 3 2\ne 1 2\ne 2 9",
      "c only a comment",
      // Extra trailing tokens.
      "p edge 3 1 7\ne 1 2\n",
      "p edge 3 1\ne 1 2 3\n",
      "p edge 3 1\ne 1 2 c\n",
      // A lone CR does not end a line: this is one line with six tokens.
      "p edge 3 1\re 1 2\n",
      // Records that are not exactly "p" or "e", comments that are.
      "pedge 3 1\n",
      "p edge 3 1\nedge 1 2\n",
      "comment without the space\np edge 2 1\ne 1 2\n",
      "p edge 2 1\n   c indented comment\ne 1 2\n",
      "p cnf 2 1\ne 1 2\n",
      // Numbers from_chars must reject or bound.
      "p edge +3 1\ne 1 2\n",
      "p edge 3 1\ne 1 +2\n",
      "p edge 3 1\ne 1.0 2\n",
      "p edge 3 1\ne 1 0x2\n",
      "p edge 3 1\ne -1 2\n",
      // At the node cap: accepted, and costs only the offsets array.
      "p edge 67108864 0\n",
      "p edge 67108865 0\n",
      "p edge 0 2147483649\n",
      "p edge 3 0\ne 1 2\n",
      // Embedded NUL bytes are token characters, not separators.
      std::string("p edge 3 1\ne 1 2\0\n", 19),
      std::string("p edge 3 1\ne 1\0 2\n", 19),
  };
}

TEST(DimacsReference, CorpusMatchesLineByLineReader) {
  for (const std::string& text : corpus()) expect_matches_reference(text);
}

// Byte-level mutants of a valid file: deleted, duplicated and replaced
// characters (drawn from the DIMACS alphabet and its separators).
TEST(DimacsReference, MutatedFilesMatchLineByLineReader) {
  const std::string base = write_dimacs_string(kings_graph(3, 4), "kings 3x4");
  const std::string alphabet = "pec 0123456789-\t\r\n\v";
  msropm::util::Rng rng(91);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text = base;
    const std::uint64_t edits = 1 + rng.uniform_index(4);
    for (std::uint64_t k = 0; k < edits && !text.empty(); ++k) {
      const std::size_t at = rng.uniform_index(text.size());
      const char c = alphabet[rng.uniform_index(alphabet.size())];
      switch (rng.uniform_index(3)) {
        case 0: text.erase(at, 1); break;
        case 1: text.insert(at, 1, c); break;
        default: text[at] = c; break;
      }
    }
    expect_matches_reference(text);
  }
}

// A read that fails part way reports the lines before the failure first,
// then the I/O error, as the line-by-line reader did.
TEST(DimacsReference, StreamErrorMatchesLineByLineReader) {
  const std::vector<std::string> texts = {
      "p edge 3 2\ne 1 2\ne 2 3\n",
      "p edge 3 2\nq 1 2\ne 2 3\n",
      "c x\np edge 3 2\ne 1 2\ne 2 3 extra\n",
  };
  for (const std::string& text : texts) {
    for (std::size_t limit = 0; limit <= text.size(); ++limit) {
      SCOPED_TRACE("failing after " + std::to_string(limit) + " bytes");
      const ReadOutcome expected = outcome_of([&] {
        FailingBuf buf(text, limit);
        std::istream in(&buf);
        return reference_read_dimacs(in);
      });
      expect_same_outcome(expected, outcome_of([&] {
        FailingBuf buf(text, limit);
        std::istream in(&buf);
        return read_dimacs(in);
      }));
    }
  }
}

TEST(DimacsIo, ParsesMinimalInstance) {
  const Graph g = read_dimacs_string(
      "c a comment\n"
      "p edge 3 2\n"
      "e 1 2\n"
      "e 2 3\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(DimacsIo, AcceptsColVariantAndBlankLines) {
  const Graph g = read_dimacs_string(
      "\n"
      "p col 2 1\n"
      "\n"
      "e 1 2\n");
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DimacsIo, CollapsesDuplicateEdges) {
  const Graph g = read_dimacs_string(
      "p edge 2 2\n"
      "e 1 2\n"
      "e 2 1\n");
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DimacsIo, RejectsMissingHeader) {
  EXPECT_THROW(read_dimacs_string("e 1 2\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string(""), std::runtime_error);
}

TEST(DimacsIo, RejectsDuplicateHeader) {
  EXPECT_THROW(read_dimacs_string("p edge 2 0\np edge 2 0\n"), std::runtime_error);
}

TEST(DimacsIo, RejectsMalformedRecords) {
  EXPECT_THROW(read_dimacs_string("p edge 2\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge 2 1\ne 1\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge 2 1\ne 1 x\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge 2 1\nq 1 2\n"), std::runtime_error);
}

TEST(DimacsIo, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(read_dimacs_string("p edge 2 1\ne 1 3\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge 2 1\ne 0 1\n"), std::runtime_error);
}

TEST(DimacsIo, RejectsSelfLoop) {
  EXPECT_THROW(read_dimacs_string("p edge 2 1\ne 1 1\n"), std::runtime_error);
}

TEST(DimacsIo, RejectsMoreEdgesThanDeclared) {
  EXPECT_THROW(read_dimacs_string("p edge 3 1\ne 1 2\ne 2 3\n"),
               std::runtime_error);
}

// An instance that lists every edge twice is legal (records >= declared,
// distinct edges <= declared) — the published-corpus quirk the truncation
// check must not break.
TEST(DimacsIo, AcceptsDoubleListedEdges) {
  const Graph g = read_dimacs_string(
      "p edge 3 2\n"
      "e 1 2\ne 2 1\n"
      "e 2 3\ne 3 2\n");
  EXPECT_EQ(g.num_edges(), 2u);
}

// A file cut off mid-stream has fewer edge records than the header promised;
// it must be rejected, not returned as a silently smaller graph.
TEST(DimacsIo, RejectsTruncatedEdgeList) {
  EXPECT_THROW(read_dimacs_string("p edge 4 3\ne 1 2\ne 2 3\n"),
               std::runtime_error);
  // Header only, every edge missing.
  EXPECT_THROW(read_dimacs_string("p edge 4 3\n"), std::runtime_error);
}

// Headers that would drive multi-gigabyte allocations (or overflow the
// NodeId type / long long parsing) are malformed input, not requests.
TEST(DimacsIo, RejectsOversizedDeclarations) {
  EXPECT_THROW(read_dimacs_string("p edge 999999999999999 1\ne 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge 3 999999999999999\ne 1 2\n"),
               std::runtime_error);
  // Past long long entirely: from_chars overflow must surface as a parse
  // error with a line number, not wrap around.
  EXPECT_THROW(
      read_dimacs_string("p edge 99999999999999999999999999 1\ne 1 2\n"),
      std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge -1 0\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_string("p edge 3 -1\n"), std::runtime_error);
}

// Endpoint tokens that overflow the parser are bad endpoints, not node 2^64-k.
TEST(DimacsIo, RejectsOverflowingEndpoints) {
  EXPECT_THROW(
      read_dimacs_string("p edge 3 1\ne 1 99999999999999999999999999\n"),
      std::runtime_error);
}

TEST(DimacsIo, RoundTripPreservesGraph) {
  const Graph original = kings_graph(4, 5);
  const auto text = write_dimacs_string(original, "kings 4x5");
  const Graph parsed = read_dimacs_string(text);
  EXPECT_EQ(parsed, original);
}

TEST(DimacsIo, WriteContainsHeaderAndComment) {
  const Graph g = cycle_graph(3);
  const auto text = write_dimacs_string(g, "triangle");
  EXPECT_NE(text.find("c triangle"), std::string::npos);
  EXPECT_NE(text.find("p edge 3 3"), std::string::npos);
  EXPECT_NE(text.find("e 1 2"), std::string::npos);
}

TEST(DimacsIo, FileRoundTrip) {
  const Graph original = kings_graph_square(5);
  const std::string path = ::testing::TempDir() + "/kings5.col";
  write_dimacs_file(path, original);
  EXPECT_EQ(read_dimacs_file(path), original);
}

// The graph.parse timer is write-only: the parsed graph is identical with
// metrics and tracing on or off, and each parse records one duration.
TEST(DimacsIo, ObsOnOrOffGivesIdenticalGraphs) {
  const auto quiet = [] {
    msropm::obs::set_metrics_enabled(false);
    msropm::obs::set_tracing_enabled(false);
    msropm::obs::reset();
  };
  const std::string text = write_dimacs_string(kings_graph_square(9));
  quiet();
  const Graph off = read_dimacs_string(text);
  msropm::obs::set_metrics_enabled(true);
  msropm::obs::set_tracing_enabled(true);
  const Graph on = read_dimacs_string(text);
#if !defined(MSROPM_OBS_DISABLED)
  const auto snap = msropm::obs::snapshot_metrics();
  const auto* timer = snap.find_timer("graph.parse");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->stats.count(), 1u);
#endif
  quiet();
  EXPECT_EQ(on, off);
}

TEST(DimacsIo, MissingFileThrows) {
  EXPECT_THROW(read_dimacs_file("/nonexistent/definitely/missing.col"),
               std::runtime_error);
}

}  // namespace
