// Tests for CNF representation and DIMACS CNF I/O.
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

TEST(DimacsCnf, ParsesStandardFormat) {
  const Cnf cnf = read_dimacs_cnf_string(
      "c example\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n");
  EXPECT_EQ(cnf.num_vars(), 3u);
  EXPECT_EQ(cnf.num_clauses(), 2u);
  EXPECT_EQ(cnf.clauses()[0][0], pos(0));
  EXPECT_EQ(cnf.clauses()[0][1], neg(1));
}

TEST(DimacsCnf, MultiLineClause) {
  const Cnf cnf = read_dimacs_cnf_string(
      "p cnf 3 1\n"
      "1 2\n"
      "3 0\n");
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clauses()[0].size(), 3u);
}

TEST(DimacsCnf, RejectsMalformed) {
  EXPECT_THROW(read_dimacs_cnf_string(""), std::runtime_error);
  EXPECT_THROW(read_dimacs_cnf_string("1 0\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 1 1\n2 0\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 1 1\n1\n"), std::runtime_error);
  EXPECT_THROW(read_dimacs_cnf_string("p cnf x 1\n"), std::runtime_error);
}

TEST(DimacsCnf, RejectsVariableCountAboveCap) {
  // The Solver sizes its per-variable arrays by the declaration, so a count
  // past the reader's cap (the graph reader's 2^26 nodes) is bad input.
  EXPECT_NO_THROW((void)read_dimacs_cnf_string("p cnf 67108864 1\n1 0\n"));
  for (const char* text : {"p cnf 67108865 1\n1 0\n", "p cnf 2000000000 1\n1 0\n"}) {
    try {
      (void)read_dimacs_cnf_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "DIMACS CNF: bad counts at line 1");
    }
  }
}

TEST(DimacsCnf, RejectsUnencodableVariables) {
  // A variable count beyond what a 32-bit Lit can pack would alias var
  // 2147483648 onto var 0.
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 3000000000 1\n2147483649 0\n"),
               std::runtime_error);
  // The most negative int64 literal is range-checked before it is negated.
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 3 1\n-9223372036854775808 0\n"),
               std::runtime_error);
}

TEST(DimacsCnf, AcceptsSatlibPercentEofMarker) {
  // SATLIB benchmark files end with a "%" line followed by a stray "0" (and
  // sometimes trailing garbage); everything after the marker is ignored.
  const Cnf cnf = read_dimacs_cnf_string(
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n"
      "%\n"
      "0\n"
      "\n");
  EXPECT_EQ(cnf.num_vars(), 3u);
  EXPECT_EQ(cnf.num_clauses(), 2u);
}

TEST(DimacsCnf, PercentMarkerMidLineStopsParsing) {
  const Cnf cnf = read_dimacs_cnf_string(
      "p cnf 2 1\n"
      "1 2 0 %\n"
      "this is not DIMACS at all\n");
  EXPECT_EQ(cnf.num_clauses(), 1u);
}

TEST(DimacsCnf, RejectsClauseCountMismatch) {
  // Fewer clauses than declared.
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 2 3\n1 2 0\n"), std::runtime_error);
  // More clauses than declared.
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 2 1\n1 0\n2 0\n"),
               std::runtime_error);
  // Clauses hidden behind the EOF marker do not count.
  EXPECT_THROW(read_dimacs_cnf_string("p cnf 2 2\n1 0\n%\n2 0\n"),
               std::runtime_error);
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

TEST(DimacsCnf, RoundTrip) {
  Cnf cnf(4);
  cnf.add_ternary(pos(0), neg(2), pos(3));
  cnf.add_unit(neg(1));
  const auto text = write_dimacs_cnf_string(cnf);
  const Cnf parsed = read_dimacs_cnf_string(text);
  EXPECT_EQ(parsed.num_vars(), cnf.num_vars());
  ASSERT_EQ(parsed.num_clauses(), cnf.num_clauses());
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    EXPECT_TRUE(std::ranges::equal(parsed.clause(i), cnf.clause(i)));
  }
}

}  // namespace
