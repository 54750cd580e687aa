// Unit tests for the flat clause arena: record layout, flag handling,
// activity storage, in-place shrinking, waste accounting, and relocation
// (the GC building block).
#include "msropm/sat/arena.hpp"

#include <gtest/gtest.h>

namespace {

using namespace msropm::sat;

TEST(ClauseArena, AllocStoresLitsInOrder) {
  ClauseArena arena;
  const Clause c{pos(3), neg(1), pos(7)};
  const ClauseRef r = arena.alloc(c, /*learnt=*/false);
  ASSERT_EQ(arena.size(r), 3u);
  EXPECT_EQ(arena.lits(r)[0], pos(3));
  EXPECT_EQ(arena.lits(r)[1], neg(1));
  EXPECT_EQ(arena.lits(r)[2], pos(7));
  EXPECT_FALSE(arena.learnt(r));
  EXPECT_FALSE(arena.deleted(r));
  EXPECT_FALSE(arena.marked(r));
}

TEST(ClauseArena, RefsAreStableAcrossGrowth) {
  ClauseArena arena;
  std::vector<ClauseRef> refs;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const Clause c{pos(i), neg(i + 1), pos(i + 2)};
    refs.push_back(arena.alloc(c, i % 2 == 0));
  }
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(arena.size(refs[i]), 3u);
    EXPECT_EQ(arena.lits(refs[i])[0], pos(i));
    EXPECT_EQ(arena.lits(refs[i])[2], pos(i + 2));
    EXPECT_EQ(arena.learnt(refs[i]), i % 2 == 0);
  }
}

TEST(ClauseArena, LearntActivityRoundTripsAsDouble) {
  ClauseArena arena;
  const Clause c{pos(0), pos(1)};
  const ClauseRef r = arena.alloc(c, /*learnt=*/true);
  EXPECT_EQ(arena.activity(r), 0.0);
  // Full double precision must survive (clause activities are compared, so
  // narrowing to float would change reduce_learnts decisions).
  const double a = 1.0 + 1e-15;
  arena.set_activity(r, a);
  EXPECT_EQ(arena.activity(r), a);
  // The activity slot must not clobber the literals.
  EXPECT_EQ(arena.lits(r)[0], pos(0));
  EXPECT_EQ(arena.lits(r)[1], pos(1));
}

TEST(ClauseArena, FreeMarksDeletedAndAccountsWaste) {
  ClauseArena arena;
  const Clause c{pos(0), pos(1), pos(2)};
  const ClauseRef r = arena.alloc(c, /*learnt=*/false);
  EXPECT_EQ(arena.wasted_words(), 0u);
  arena.free_clause(r);
  EXPECT_TRUE(arena.deleted(r));
  EXPECT_EQ(arena.wasted_words(), 4u);  // header + 3 lits
  // Literals stay readable until GC (lazy watch cleanup may still look).
  EXPECT_EQ(arena.lits(r)[1], pos(1));
}

TEST(ClauseArena, MarkBitIsIndependentOfOtherFlags) {
  ClauseArena arena;
  const Clause c{pos(0), pos(1)};
  const ClauseRef r = arena.alloc(c, /*learnt=*/true);
  arena.set_activity(r, 3.5);
  arena.set_mark(r, true);
  EXPECT_TRUE(arena.marked(r));
  EXPECT_TRUE(arena.learnt(r));
  EXPECT_FALSE(arena.deleted(r));
  EXPECT_EQ(arena.size(r), 2u);
  EXPECT_EQ(arena.activity(r), 3.5);
  arena.set_mark(r, false);
  EXPECT_FALSE(arena.marked(r));
}

TEST(ClauseArena, RelocCopiesLiveRecord) {
  ClauseArena from;
  const Clause c{pos(5), neg(6), pos(7)};
  const ClauseRef r = from.alloc(c, /*learnt=*/true);
  from.set_activity(r, 42.0);

  ClauseArena to;
  const ClauseRef nr = from.reloc(r, to);
  ASSERT_EQ(to.size(nr), 3u);
  EXPECT_EQ(to.lits(nr)[0], pos(5));
  EXPECT_EQ(to.lits(nr)[1], neg(6));
  EXPECT_EQ(to.lits(nr)[2], pos(7));
  EXPECT_TRUE(to.learnt(nr));
  EXPECT_EQ(to.activity(nr), 42.0);
}

TEST(ClauseArena, RelocForwardsSecondHolderToSameCopy) {
  ClauseArena from;
  const Clause a{pos(0), pos(1)};
  const Clause b{pos(2), pos(3)};
  const ClauseRef ra = from.alloc(a, false);
  const ClauseRef rb = from.alloc(b, false);

  ClauseArena to;
  // Two watch entries + a reason slot all relocate the same record; they
  // must converge on one copy.
  const ClauseRef na1 = from.reloc(ra, to);
  const ClauseRef nb = from.reloc(rb, to);
  const ClauseRef na2 = from.reloc(ra, to);
  const ClauseRef na3 = from.reloc(ra, to);
  EXPECT_EQ(na1, na2);
  EXPECT_EQ(na1, na3);
  EXPECT_NE(na1, nb);
  EXPECT_EQ(to.lits(nb)[0], pos(2));
  // Exactly two records were copied.
  EXPECT_EQ(to.used_words(), 2 * (1 + 2));
}

TEST(ClauseArena, GcDropsDeletedRecords) {
  ClauseArena from;
  std::vector<ClauseRef> live;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Clause c{pos(i), neg(i + 1), pos(i + 2)};
    const ClauseRef r = from.alloc(c, false);
    if (i % 2 == 0) {
      live.push_back(r);
    } else {
      from.free_clause(r);
    }
  }
  ClauseArena to;
  for (ClauseRef& r : live) r = from.reloc(r, to);
  EXPECT_EQ(to.used_words(), 50 * 4u);
  EXPECT_EQ(to.wasted_words(), 0u);
  for (std::uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(to.lits(live[i])[0], pos(2 * i));
  }
}

TEST(ClauseArena, AllocWordCounterCarriesAcrossGc) {
  ClauseArena from;
  const Clause c{pos(0), pos(1), pos(2)};
  (void)from.alloc(c, false);
  const ClauseRef dead = from.alloc(c, false);
  from.free_clause(dead);
  const std::size_t lifetime = from.alloc_words();
  EXPECT_EQ(lifetime, 8u);

  ClauseArena to;
  ClauseRef survivor = 0;
  (void)(survivor = from.reloc(survivor, to));
  to.carry_alloc_stats_from(from);
  // Relocation is a move, not a fresh allocation: the lifetime counter must
  // not double-count the surviving clause.
  EXPECT_EQ(to.alloc_words(), lifetime);
  EXPECT_LT(to.used_words(), from.used_words());
}

}  // namespace
