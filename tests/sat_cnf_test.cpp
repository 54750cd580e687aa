// Tests for the CNF representation and literal packing.
#include "msropm/sat/cnf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>

namespace {

using namespace msropm::sat;

TEST(Lit, PackingAndPolarity) {
  const Lit a = pos(3);
  EXPECT_EQ(a.var(), 3u);
  EXPECT_FALSE(a.negated());
  const Lit b = ~a;
  EXPECT_EQ(b.var(), 3u);
  EXPECT_TRUE(b.negated());
  EXPECT_EQ(~b, a);
  EXPECT_NE(a, b);
}

TEST(Lit, DimacsIntegers) {
  EXPECT_EQ(pos(0).to_dimacs(), 1);
  EXPECT_EQ(neg(0).to_dimacs(), -1);
  EXPECT_EQ(pos(41).to_dimacs(), 42);
  EXPECT_EQ(neg(41).to_dimacs(), -42);
}

TEST(Cnf, NewVarGrows) {
  Cnf cnf;
  EXPECT_EQ(cnf.num_vars(), 0u);
  EXPECT_EQ(cnf.new_var(), 0u);
  EXPECT_EQ(cnf.new_var(), 1u);
  EXPECT_EQ(cnf.num_vars(), 2u);
}

TEST(Cnf, AddClauseValidatesRange) {
  Cnf cnf(2);
  cnf.add_binary(pos(0), neg(1));
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_THROW(cnf.add_unit(pos(2)), std::invalid_argument);
}

TEST(Cnf, SatisfiedBy) {
  Cnf cnf(2);
  cnf.add_binary(pos(0), pos(1));
  cnf.add_unit(neg(0));
  EXPECT_TRUE(cnf.satisfied_by({0, 1}));
  EXPECT_FALSE(cnf.satisfied_by({0, 0}));
  EXPECT_FALSE(cnf.satisfied_by({1, 1}));
  EXPECT_THROW((void)cnf.satisfied_by({0}), std::invalid_argument);
}

TEST(Cnf, EmptyClauseUnsatisfiable) {
  Cnf cnf(1);
  cnf.add_clause({});
  EXPECT_FALSE(cnf.satisfied_by({0}));
  EXPECT_FALSE(cnf.satisfied_by({1}));
}

TEST(Cnf, AddClauseAppendsToOnePool) {
  Cnf cnf(3);
  const Clause c{pos(0), neg(1), pos(2)};
  cnf.add_clause(c);
  cnf.add_clause({});
  cnf.add_binary(neg(2), pos(1));
  ASSERT_EQ(cnf.num_clauses(), 3u);
  EXPECT_TRUE(std::ranges::equal(cnf.clause(0), c));
  EXPECT_TRUE(cnf.clause(1).empty());
  // Clauses are adjacent ranges of one buffer, in insertion order.
  EXPECT_EQ(cnf.clause(2).data(), cnf.clause(0).data() + 3);
  EXPECT_EQ(cnf.clauses()[2][0], neg(2));
  std::size_t seen = 0;
  for (const std::span<const Lit> clause : cnf.clauses()) {
    EXPECT_TRUE(std::ranges::equal(clause, cnf.clause(seen++)));
  }
  EXPECT_EQ(seen, 3u);
  // A clause with an out-of-range literal throws and adds nothing.
  const Clause bad{pos(0), pos(7)};
  EXPECT_THROW(cnf.add_clause(bad), std::invalid_argument);
  EXPECT_EQ(cnf.num_clauses(), 3u);
  cnf.add_unit(pos(1));
  EXPECT_EQ(cnf.clause(3).data(), cnf.clause(2).data() + 2);
}

}  // namespace
