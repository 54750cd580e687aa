#pragma once
// CNF formula representation and DIMACS-CNF I/O.
//
// The paper uses "a generic SAT solver" to compute the exact 4-colorings that
// serve as the accuracy baseline (Sec. 4). This module plus solver.hpp is
// that generic SAT solver, built from scratch.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace msropm::sat {

using Var = std::uint32_t;

/// Largest variable count a Lit can address such that every literal packs
/// into 32 bits and its DIMACS integer (to_dimacs) fits an int.
inline constexpr std::size_t kMaxVars = 0x7fffffff;

/// Literal: variable with polarity, packed as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() = default;
  Lit(Var v, bool negated) : x_(2 * v + (negated ? 1u : 0u)) {}

  [[nodiscard]] static Lit from_index(std::uint32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }

  [[nodiscard]] Var var() const noexcept { return x_ >> 1; }
  [[nodiscard]] bool negated() const noexcept { return (x_ & 1u) != 0; }
  [[nodiscard]] Lit operator~() const noexcept { return from_index(x_ ^ 1u); }
  [[nodiscard]] std::uint32_t index() const noexcept { return x_; }

  /// DIMACS integer: +v+1 for positive, -(v+1) for negative.
  [[nodiscard]] int to_dimacs() const noexcept {
    const int v = static_cast<int>(var()) + 1;
    return negated() ? -v : v;
  }

  friend bool operator==(Lit, Lit) = default;
  friend auto operator<=>(Lit a, Lit b) { return a.x_ <=> b.x_; }

 private:
  std::uint32_t x_ = 0;
};

/// Positive literal of variable v.
[[nodiscard]] inline Lit pos(Var v) { return Lit(v, false); }
/// Negative literal of variable v.
[[nodiscard]] inline Lit neg(Var v) { return Lit(v, true); }

using Clause = std::vector<Lit>;

/// A CNF formula: a clause list over num_vars variables.
class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(std::size_t num_vars) : num_vars_(num_vars) {}

  /// Allocate a fresh variable, returning its id.
  Var new_var() { return static_cast<Var>(num_vars_++); }

  /// Add a clause; empty clauses are legal (formula trivially UNSAT).
  /// The rvalue overload moves the literal storage in (bulk producers like
  /// the DIMACS parser and the coloring encoder pass std::move and never
  /// copy a clause); braced-init-list calls bind to it too.
  void add_clause(const Clause& clause);
  void add_clause(Clause&& clause);
  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }

  [[nodiscard]] std::size_t num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::size_t num_clauses() const noexcept { return clauses_.size(); }
  [[nodiscard]] const std::vector<Clause>& clauses() const noexcept { return clauses_; }

  /// Check a full assignment (indexed by var, true/false) against all clauses.
  [[nodiscard]] bool satisfied_by(const std::vector<std::uint8_t>& assignment) const;

 private:
  std::size_t num_vars_ = 0;
  std::vector<Clause> clauses_;
};

/// DIMACS CNF ("p cnf V C" + clause lines terminated by 0). Readers accept
/// the conventional SATLIB `%` end-of-file marker (everything after it is
/// ignored) and validate the declared clause count against the clauses
/// actually read, throwing std::runtime_error on mismatch.
[[nodiscard]] Cnf read_dimacs_cnf(std::istream& in);
[[nodiscard]] Cnf read_dimacs_cnf_string(const std::string& content);
void write_dimacs_cnf(std::ostream& out, const Cnf& cnf);
[[nodiscard]] std::string write_dimacs_cnf_string(const Cnf& cnf);

}  // namespace msropm::sat
