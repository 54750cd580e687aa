#pragma once
// Flat clause arena (MiniSat/cryptominisat ClauseAllocator style).
//
// Clauses live as [header | activity? | lits...] records inside one
// contiguous uint32_t buffer and are addressed by a 32-bit ClauseRef (the
// word offset of the header). This kills the per-clause std::vector<Lit>
// allocations of the old InternalClause/PClause designs and makes the whole
// clause database of the CDCL solver one cache-friendly allocation.
//
// Header word layout (bit 0 = LSB):
//   bit 0        deleted      clause was logically removed (space is wasted
//                             until the next garbage collection)
//   bit 1        learnt       record carries a 2-word double activity slot
//   bit 2        relocated    record was moved by GC; the word after the
//                             header holds the forwarding ClauseRef
//   bit 3        mark         scratch bit (reason-locking during learnt-DB
//                             reduction); callers must clear it after use
//   bits 4..31   size         number of literals (max 2^28 - 1)
//
// Lifetime rules for ClauseRefs:
//   - A ref stays valid (and stable) until the arena that produced it is
//     garbage-collected or destroyed. GC moves live records into a fresh
//     buffer, so every holder (watch lists, reason slots, learnt lists,
//     occurrence lists) must be remapped through reloc() in the same pass.
//   - free_clause() only marks the record deleted; the words are reclaimed
//     by the next GC. Reading lits of a deleted record is still safe until
//     then (propagation may race ahead of lazy watch cleanup), but a deleted
//     record must never be relocated.
//   - reloc() on an already-moved record returns the forwarding ref, so
//     multi-holder remaps (two watch entries + a reason + the learnt list
//     pointing at one clause) converge on a single copy.

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "msropm/sat/cnf.hpp"

// Arena-integrity checks (double-free, relocating a deleted record, reading
// a relocated header) stay alive in sanitizer builds, which compile with
// NDEBUG but exist exactly to catch this class of bug: a "freed" record
// still lives inside the arena vector, so ASan alone cannot see a
// use-after-free through a stale ClauseRef.
#if !defined(NDEBUG) || defined(MSROPM_SAT_CHECK_INVARIANTS)
#define MSROPM_SAT_ARENA_CHECK(cond, what)                               \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "FATAL: ClauseArena invariant violated: %s\n", \
                   what);                                                \
      std::abort();                                                      \
    }                                                                    \
  } while (false)
#else
#define MSROPM_SAT_ARENA_CHECK(cond, what) ((void)0)
#endif

namespace msropm::sat {

/// Word offset of a clause header inside a ClauseArena buffer.
using ClauseRef = std::uint32_t;

/// Sentinel: "no clause" (also the solver's "no reason" marker).
inline constexpr ClauseRef kNullClauseRef = ~ClauseRef{0};

class ClauseArena {
 public:
  ClauseArena() = default;
  explicit ClauseArena(std::size_t reserve_words) { data_.reserve(reserve_words); }

  /// Append a clause record; returns its ref. `learnt` reserves the activity
  /// slot (initialized to 0.0). Literal order is preserved.
  ClauseRef alloc(const Lit* lits, std::size_t n, bool learnt) {
    assert(n < (std::size_t{1} << 28));
    const std::size_t need = 1 + (learnt ? kActivityWords : 0) + n;
    // Hard (always-on) overflow guard: refs are 32-bit word offsets, so a
    // buffer past kNullClauseRef words would silently wrap new refs onto
    // old clauses. Corruption must be a loud abort, not garbage literals.
    if (data_.size() >= static_cast<std::size_t>(kNullClauseRef) - need) {
      std::fprintf(stderr,
                   "FATAL: ClauseArena overflow (%zu words in use); 32-bit "
                   "ClauseRef space exhausted\n",
                   data_.size());
      std::abort();
    }
    const auto ref = static_cast<ClauseRef>(data_.size());
    grow(need);
    data_[ref] = (static_cast<std::uint32_t>(n) << kSizeShift) |
                 (learnt ? kLearntBit : 0u);
    if (learnt) {
      const double zero = 0.0;
      std::memcpy(&data_[ref + 1], &zero, sizeof zero);
    }
    std::uint32_t* out = &data_[ref + 1 + (learnt ? kActivityWords : 0)];
    for (std::size_t i = 0; i < n; ++i) out[i] = lits[i].index();
    alloc_words_ += need;
    return ref;
  }
  ClauseRef alloc(const Clause& c, bool learnt) {
    return alloc(c.data(), c.size(), learnt);
  }

  [[nodiscard]] std::size_t size(ClauseRef r) const noexcept {
    return data_[r] >> kSizeShift;
  }
  [[nodiscard]] bool learnt(ClauseRef r) const noexcept {
    return (data_[r] & kLearntBit) != 0;
  }
  [[nodiscard]] bool deleted(ClauseRef r) const noexcept {
    return (data_[r] & kDeletedBit) != 0;
  }
  [[nodiscard]] bool marked(ClauseRef r) const noexcept {
    return (data_[r] & kMarkBit) != 0;
  }
  void set_mark(ClauseRef r, bool on) noexcept {
    if (on) {
      data_[r] |= kMarkBit;
    } else {
      data_[r] &= ~kMarkBit;
    }
  }

  [[nodiscard]] Lit* lits(ClauseRef r) noexcept {
    // Lit is a single uint32_t (static_assert below); reinterpreting buffer
    // words as Lit objects is the standard SAT-solver flat-arena idiom.
    return reinterpret_cast<Lit*>(&data_[lits_offset(r)]);
  }
  [[nodiscard]] const Lit* lits(ClauseRef r) const noexcept {
    return reinterpret_cast<const Lit*>(&data_[lits_offset(r)]);
  }

  [[nodiscard]] double activity(ClauseRef r) const noexcept {
    assert(learnt(r));
    double a;
    std::memcpy(&a, &data_[r + 1], sizeof a);
    return a;
  }
  void set_activity(ClauseRef r, double a) noexcept {
    assert(learnt(r));
    std::memcpy(&data_[r + 1], &a, sizeof a);
  }

  /// Logically delete the record; its words count as wasted until GC.
  void free_clause(ClauseRef r) noexcept {
    MSROPM_SAT_ARENA_CHECK(!deleted(r), "double free of a clause record");
    data_[r] |= kDeletedBit;
    wasted_ += record_words(r);
  }

  /// Copy a live record into `to` (or chase the forwarding ref if some other
  /// holder already moved it) and return the new ref. Marks the old record
  /// relocated. Activity and flags travel with the clause; the scratch mark
  /// bit does not.
  [[nodiscard]] ClauseRef reloc(ClauseRef r, ClauseArena& to) {
    if ((data_[r] & kRelocatedBit) != 0) return data_[r + 1];
    MSROPM_SAT_ARENA_CHECK(!deleted(r), "relocating a deleted clause record");
    const bool is_learnt = learnt(r);
    const ClauseRef nr = to.alloc(lits(r), size(r), is_learnt);
    if (is_learnt) to.set_activity(nr, activity(r));
    data_[r] |= kRelocatedBit;
    data_[r + 1] = nr;  // activity slot / first literal becomes the forward ref
    return nr;
  }

  /// Words currently occupied by records (live + deleted, pre-GC).
  [[nodiscard]] std::size_t used_words() const noexcept { return data_.size(); }
  /// Words occupied by deleted records and shrunken-away literals.
  [[nodiscard]] std::size_t wasted_words() const noexcept { return wasted_; }
  /// Lifetime words handed out by alloc() (monotone; carried across GC by
  /// carry_alloc_stats_from so relocation does not count as new allocation).
  [[nodiscard]] std::size_t alloc_words() const noexcept { return alloc_words_; }

  /// Transfer the lifetime-allocation counter from the pre-GC arena: the
  /// reloc() copies this arena received are moves, not fresh allocations.
  void carry_alloc_stats_from(const ClauseArena& from) noexcept {
    alloc_words_ = from.alloc_words_;
  }

  void clear() noexcept {
    data_.clear();
    wasted_ = 0;
    alloc_words_ = 0;
  }

 private:
  static constexpr std::uint32_t kDeletedBit = 1u << 0;
  static constexpr std::uint32_t kLearntBit = 1u << 1;
  static constexpr std::uint32_t kRelocatedBit = 1u << 2;
  static constexpr std::uint32_t kMarkBit = 1u << 3;
  static constexpr std::uint32_t kSizeShift = 4;
  static constexpr std::size_t kActivityWords = sizeof(double) / sizeof(std::uint32_t);

  static_assert(sizeof(Lit) == sizeof(std::uint32_t),
                "ClauseArena stores Lit objects directly in its word buffer");

  [[nodiscard]] std::size_t lits_offset(ClauseRef r) const noexcept {
    return r + 1 + (learnt(r) ? kActivityWords : 0);
  }
  [[nodiscard]] std::size_t record_words(ClauseRef r) const noexcept {
    return 1 + (learnt(r) ? kActivityWords : 0) + size(r);
  }

  void grow(std::size_t need) {
    const std::size_t want = data_.size() + need;
    if (want > data_.capacity()) {
      // Explicit doubling keeps arena growth at O(log total) allocations
      // regardless of the standard library's resize policy.
      std::size_t cap = data_.capacity() < 1024 ? 1024 : data_.capacity();
      while (cap < want) cap *= 2;
      data_.reserve(cap);
    }
    data_.resize(want);
  }

  std::vector<std::uint32_t> data_;
  std::size_t wasted_ = 0;
  std::size_t alloc_words_ = 0;
};

}  // namespace msropm::sat
