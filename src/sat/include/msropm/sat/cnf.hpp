#pragma once
// CNF formula representation.
//
// The paper uses "a generic SAT solver" to compute the exact 4-colorings that
// serve as the accuracy baseline (Sec. 4). This module plus solver.hpp is
// that generic SAT solver, built from scratch.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <vector>

namespace msropm::sat {

using Var = std::uint32_t;

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

/// A growable literal buffer (learnt clauses, scratch, test fixtures). A
/// Cnf does not store Clause objects: it copies literals into its pool.
using Clause = std::vector<Lit>;

/// A CNF formula: a clause list over num_vars variables.
///
/// Storage is flat, as in minicdcl's addClause_: every literal lives in one
/// pool, and clause i is the pool range that ends at `ends_[i]` and begins
/// where clause i - 1 ends. Adding a clause appends to the pool, so a whole
/// formula costs a handful of amortized growths (none after reserve()), not
/// one allocation per clause. Clause and literal order are insertion order.
class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(std::size_t num_vars) : num_vars_(num_vars) {}

  /// Allocate a fresh variable, returning its id.
  Var new_var() { return static_cast<Var>(num_vars_++); }

  /// Reserve room for `clauses` clauses holding `literals` literals in all.
  void reserve(std::size_t clauses, std::size_t literals) {
    ends_.reserve(clauses);
    pool_.reserve(literals);
  }

  /// Add a clause by copying its literals into the pool; empty clauses are
  /// legal (formula trivially UNSAT). Throws std::invalid_argument, adding
  /// nothing, if a literal's variable is out of range. Defined here so the
  /// encoder's ~35k calls per 46x46 formula inline (about 40% of encode).
  void add_clause(std::span<const Lit> clause) {
    for (Lit l : clause) {
      if (l.var() >= num_vars_) throw_var_out_of_range();
    }
    pool_.insert(pool_.end(), clause.begin(), clause.end());
    ends_.push_back(pool_.size());
  }
  void add_clause(std::initializer_list<Lit> clause) {
    add_clause(std::span<const Lit>(clause.begin(), clause.size()));
  }
  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }

  [[nodiscard]] std::size_t num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::size_t num_clauses() const noexcept { return ends_.size(); }
  /// Clause i's literals, in insertion order.
  [[nodiscard]] std::span<const Lit> clause(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {pool_.data() + begin, ends_[i] - begin};
  }
  /// Read-only view of the clauses (`size()`, `operator[]`, range-for),
  /// each a span into the pool. Invalidated by add_clause().
  [[nodiscard]] auto clauses() const {
    return std::views::iota(std::size_t{0}, num_clauses()) |
           std::views::transform([this](std::size_t i) { return clause(i); });
  }

  /// Check a full assignment (indexed by var, true/false) against all clauses.
  [[nodiscard]] bool satisfied_by(const std::vector<std::uint8_t>& assignment) const;

 private:
  [[noreturn]] static void throw_var_out_of_range();

  std::size_t num_vars_ = 0;
  std::vector<Lit> pool_;          // every clause's literals, back to back
  std::vector<std::size_t> ends_;  // one past clause i's last literal
};

}  // namespace msropm::sat
