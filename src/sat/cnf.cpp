#include "msropm/sat/cnf.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "msropm/util/strings.hpp"
#include "msropm/util/tokenizer.hpp"

namespace msropm::sat {

void Cnf::throw_var_out_of_range() {
  throw std::invalid_argument("Cnf::add_clause: literal var out of range");
}

bool Cnf::satisfied_by(const std::vector<std::uint8_t>& assignment) const {
  if (assignment.size() != num_vars_) {
    throw std::invalid_argument("Cnf::satisfied_by: assignment size mismatch");
  }
  for (const std::span<const Lit> c : clauses()) {
    bool sat = false;
    for (Lit l : c) {
      const bool value = assignment[l.var()] != 0;
      if (value != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

namespace {

// Untrusted-input ceiling on the header's variable count, the graph
// reader's node cap: the Solver sizes its per-variable arrays by the
// declaration, so "p cnf 2000000000 1" must be rejected, not honored with
// gigabytes of watch lists. It is far below 2^31, so every accepted literal
// also packs into a 32-bit Lit and its DIMACS integer fits an int.
constexpr long long kMaxDeclaredVars = 1LL << 26;

Cnf parse_dimacs_cnf(std::string_view text) {
  bool have_header = false;
  bool eof_marker = false;
  std::size_t declared_vars = 0;
  std::size_t declared_clauses = 0;
  Cnf cnf;
  Clause current;
  util::LineTokenizer lines(text);
  while (!eof_marker && lines.next_line()) {
    const std::size_t line_no = lines.line_no();
    std::string_view token = lines.next_token();
    if (token.empty() || token[0] == 'c') continue;
    if (token == "p") {
      const auto kind = lines.next_token();
      const auto v_token = lines.next_token();
      const auto c_token = lines.next_token();
      if (have_header || c_token.empty() || !lines.next_token().empty() ||
          kind != "cnf") {
        throw std::runtime_error("DIMACS CNF: bad problem line at line " +
                                 std::to_string(line_no));
      }
      const auto v = util::parse_int(v_token);
      const auto c = util::parse_int(c_token);
      if (!v || !c || *v < 0 || *c < 0 || *v > kMaxDeclaredVars) {
        throw std::runtime_error("DIMACS CNF: bad counts at line " +
                                 std::to_string(line_no));
      }
      declared_vars = static_cast<std::size_t>(*v);
      declared_clauses = static_cast<std::size_t>(*c);
      cnf = Cnf(declared_vars);
      have_header = true;
      continue;
    }
    if (!have_header) {
      throw std::runtime_error("DIMACS CNF: clause before header at line " +
                               std::to_string(line_no));
    }
    for (; !token.empty(); token = lines.next_token()) {
      if (token == "%") {
        // Conventional SATLIB end-of-file marker: stop parsing and ignore
        // whatever follows (typically a stray "0" line).
        eof_marker = true;
        break;
      }
      const auto value = util::parse_int(token);
      if (!value) {
        throw std::runtime_error("DIMACS CNF: bad literal at line " +
                                 std::to_string(line_no));
      }
      if (*value == 0) {
        cnf.add_clause(current);
        current.clear();
      } else {
        // Range-check before negating: -INT64_MIN has no representation.
        const auto bound = static_cast<long long>(declared_vars);
        if (*value < -bound || *value > bound) {
          throw std::runtime_error("DIMACS CNF: variable out of range at line " +
                                   std::to_string(line_no));
        }
        const auto v = static_cast<Var>((*value < 0 ? -*value : *value) - 1);
        current.push_back(Lit(v, *value < 0));
      }
    }
  }
  if (!have_header) throw std::runtime_error("DIMACS CNF: missing header");
  if (!current.empty()) {
    throw std::runtime_error("DIMACS CNF: unterminated final clause");
  }
  if (cnf.num_clauses() != declared_clauses) {
    throw std::runtime_error(
        "DIMACS CNF: header declares " + std::to_string(declared_clauses) +
        " clauses but " + std::to_string(cnf.num_clauses()) + " were read");
  }
  return cnf;
}

}  // namespace

Cnf read_dimacs_cnf(std::istream& in) {
  return parse_dimacs_cnf(util::read_complete_lines(in));
}

Cnf read_dimacs_cnf_string(const std::string& content) {
  return parse_dimacs_cnf(content);
}

void write_dimacs_cnf(std::ostream& out, const Cnf& cnf) {
  out << "p cnf " << cnf.num_vars() << " " << cnf.num_clauses() << "\n";
  for (const std::span<const Lit> c : cnf.clauses()) {
    for (Lit l : c) out << l.to_dimacs() << " ";
    out << "0\n";
  }
}

std::string write_dimacs_cnf_string(const Cnf& cnf) {
  std::ostringstream out;
  write_dimacs_cnf(out, cnf);
  return out.str();
}

}  // namespace msropm::sat
