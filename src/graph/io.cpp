#include "msropm/graph/io.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "msropm/obs/obs.hpp"
#include "msropm/util/strings.hpp"
#include "msropm/util/tokenizer.hpp"

namespace msropm::graph {

namespace {

// Untrusted-input ceilings: a header like "p edge 9999999999999 1" must be
// rejected as malformed, not honored with a multi-gigabyte allocation (or a
// silent NodeId truncation — node ids are uint32_t). The caps comfortably
// exceed every published DIMACS coloring instance. A header at the node cap
// costs only the Graph's 32-bit offsets array (256 MiB): GraphBuilder keeps
// nothing per node.
constexpr long long kMaxDeclaredNodes = 1LL << 26;  // 67M nodes
constexpr long long kMaxDeclaredEdges = 1LL << 31;  // 2G edge records

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("DIMACS parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

// Parse a whole buffer. `io_error` marks a stream read that died part way
// (the text then ends at its last complete line): it is reported after the
// lines that were read, ahead of the end-of-input checks.
Graph parse_dimacs(std::string_view text, bool io_error) {
  static const obs::MetricId parse_timer = obs::timer("graph.parse");
  obs::Span span("graph.parse", parse_timer);
  span.arg("bytes", text.size());
  std::optional<GraphBuilder> builder;
  std::size_t declared_edges = 0;
  std::size_t edge_records = 0;
  util::LineTokenizer lines(text);
  while (lines.next_line()) {
    const std::size_t line_no = lines.line_no();
    const std::string_view record = lines.next_token();
    if (record.empty() || record[0] == 'c') continue;
    if (record == "p") {
      if (builder) fail(line_no, "duplicate problem line");
      const auto kind = lines.next_token();
      const auto n_token = lines.next_token();
      const auto m_token = lines.next_token();
      if (m_token.empty() || !lines.next_token().empty() ||
          (kind != "edge" && kind != "col")) {
        fail(line_no, "expected 'p edge <n> <m>'");
      }
      // parse_int rejects anything that overflows long long outright; the
      // explicit caps below reject in-range-but-absurd declarations.
      const auto n = util::parse_int(n_token);
      const auto m = util::parse_int(m_token);
      if (!n || !m || *n < 0 || *m < 0) fail(line_no, "bad node/edge counts");
      if (*n > kMaxDeclaredNodes) fail(line_no, "node count too large");
      if (*m > kMaxDeclaredEdges) fail(line_no, "edge count too large");
      builder.emplace(static_cast<std::size_t>(*n));
      declared_edges = static_cast<std::size_t>(*m);
    } else if (record == "e") {
      if (!builder) fail(line_no, "edge before problem line");
      const auto u_token = lines.next_token();
      const auto v_token = lines.next_token();
      if (v_token.empty() || !lines.next_token().empty()) {
        fail(line_no, "expected 'e <u> <v>'");
      }
      const auto u = util::parse_int(u_token);
      const auto v = util::parse_int(v_token);
      if (!u || !v) fail(line_no, "bad edge endpoints");
      const auto n = static_cast<long long>(builder->num_nodes());
      if (*u < 1 || *u > n || *v < 1 || *v > n) fail(line_no, "endpoint out of range");
      if (*u == *v) fail(line_no, "self-loop");
      builder->add_edge(static_cast<NodeId>(*u - 1), static_cast<NodeId>(*v - 1));
      ++edge_records;
    } else {
      fail(line_no, "unknown record '" + std::string(record) + "'");
    }
  }
  // Distinguish EOF from an I/O error mid-file: a read that died partway
  // must not be handed back as a (silently smaller) valid graph.
  if (io_error) {
    throw std::runtime_error("DIMACS parse error: I/O error while reading");
  }
  if (!builder) throw std::runtime_error("DIMACS parse error: no problem line");
  // Some published instances list each edge twice; accept any count that
  // collapses to at most the declaration.
  if (builder->num_edges() > declared_edges && declared_edges != 0) {
    throw std::runtime_error("DIMACS parse error: more distinct edges than declared");
  }
  // Fewer edge RECORDS than declared means the file was cut off (records,
  // not distinct edges — duplicate listings keep records >= declaration).
  if (edge_records < declared_edges) {
    throw std::runtime_error(
        "DIMACS parse error: fewer edge records than declared "
        "(truncated input?)");
  }
  return builder->build();
}

}  // namespace

Graph read_dimacs(std::istream& in) {
  const std::string text = util::read_complete_lines(in);
  return parse_dimacs(text, in.bad());
}

Graph read_dimacs_string(const std::string& content) {
  return parse_dimacs(content, false);
}

Graph read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open: " + path);
  return read_dimacs(in);
}

void write_dimacs(std::ostream& out, const Graph& g, const std::string& comment) {
  if (!comment.empty()) out << "c " << comment << "\n";
  out << "p edge " << g.num_nodes() << " " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) {
    out << "e " << (e.u + 1) << " " << (e.v + 1) << "\n";
  }
}

std::string write_dimacs_string(const Graph& g, const std::string& comment) {
  std::ostringstream out;
  write_dimacs(out, g, comment);
  return out.str();
}

void write_dimacs_file(const std::string& path, const Graph& g,
                       const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_dimacs(out, g, comment);
}

}  // namespace msropm::graph
