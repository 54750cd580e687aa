#pragma once
// Watcher + Reason: the hot-path types of the two-watched-literal scheme
// (MiniSat 2.2 / cryptominisat `vec<Watched>` style).
//
// Watcher (8 bytes) — one entry of a watch list:
//   cref     ClauseRef of the watched LONG (>= 3 literals) clause, or
//            kBinaryWatcher for an implicit binary clause that has NO arena
//            record at all.
//   blocker  For a long clause: some literal of the clause (initially the
//            other watched literal, refreshed opportunistically during
//            propagation). If the blocker is already true the clause is
//            satisfied and the visit skips the arena dereference entirely —
//            on coloring encodings this is the common case.
//            For a binary watcher in the list of literal p: the OTHER
//            literal q of the clause (~p \/ q); the whole clause is encoded
//            in the watch entry, so binary propagation never touches the
//            arena, original binary clauses need no arena record at all,
//            and GC never sees them.
//
// Binary and long watchers share one list per literal on purpose: each
// propagated literal then walks a single contiguous array (one cache line
// stream) instead of two separate list structures. Binaries are attached
// first, so the is_binary() branch is almost perfectly predicted.
//
// WatchLists: every literal's list is a 16-byte {data, size, cap} header.
// Ingest counts the slots each list needs and carves all of them out of ONE
// ingest block: list ~l gets its binary watchers plus one slot per original
// long clause containing l. A clause never has two watchers in one list, and
// its watchers only ever move between the lists of its own literals, so no
// watcher of an original clause ever leaves its list's slice. Only learnt
// watchers can overflow a slice; the list then moves to its own heap buffer
// and doubles from there, as std::vector would.
//
// Reason: why a variable was assigned. Tagged 8-byte union over
//   - none      (decision / top-level unit)
//   - clause    (a ClauseRef whose lits[0] is the asserted literal)
//   - binary    (the OTHER literal of an implicit binary clause; for the
//                assertion of q by (~p \/ q) that is ~p, the false literal)
// Reason slots must be remapped on GC only in the clause case; binary
// reasons are immune to clause-database relocation, which is what lets
// implicit binaries skip GC work entirely.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "msropm/sat/arena.hpp"
#include "msropm/sat/cnf.hpp"

namespace msropm::sat {

/// Sentinel cref tagging an implicit binary watcher. Distinct from
/// kNullClauseRef; the arena's overflow guard aborts long before real refs
/// could reach either sentinel.
inline constexpr ClauseRef kBinaryWatcher = kNullClauseRef - 1;

struct Watcher {
  ClauseRef cref = kNullClauseRef;
  Lit blocker{};

  [[nodiscard]] bool is_binary() const noexcept { return cref == kBinaryWatcher; }

  [[nodiscard]] static Watcher binary(Lit other) noexcept {
    return Watcher{kBinaryWatcher, other};
  }
  [[nodiscard]] static Watcher clause(ClauseRef cr, Lit blocker) noexcept {
    return Watcher{cr, blocker};
  }

  friend bool operator==(Watcher, Watcher) = default;
};

/// One literal's watch list; storage is owned by the WatchLists table.
struct WatchList {
  Watcher* data = nullptr;
  std::uint32_t size = 0;
  std::uint32_t cap = 0;

  [[nodiscard]] Watcher* begin() const noexcept { return data; }
  [[nodiscard]] Watcher* end() const noexcept { return data + size; }
};

/// The watch lists of all 2·V literals, indexed by Lit::index: one ingest
/// block for every list's initial slice plus a heap buffer per list that
/// outgrew it. Frees both on destruction.
class WatchLists {
 public:
  WatchLists() = default;
  WatchLists(const WatchLists&) = delete;
  WatchLists& operator=(const WatchLists&) = delete;
  ~WatchLists() { release(); }

  /// `num_lists` empty lists, no storage.
  void reset(std::size_t num_lists);
  /// Count one ingest-block slot for list `i`; call before reserve().
  void add_slot(std::uint32_t i) noexcept { ++lists_[i].cap; }
  /// Reserve every counted slot in one allocation, the ingest block; each
  /// list's data points at its slice of it. Call once, on empty lists.
  void reserve();

  [[nodiscard]] WatchList& operator[](std::uint32_t i) noexcept { return lists_[i]; }
  [[nodiscard]] std::span<WatchList> lists() noexcept { return lists_; }
  [[nodiscard]] std::span<const WatchList> lists() const noexcept { return lists_; }

  void push(std::uint32_t i, Watcher w) {
    WatchList& list = lists_[i];
    if (list.size == list.cap) grow(list);
    list.data[list.size++] = w;
  }

 private:
  /// Move `list` to a heap buffer of twice its capacity (at least 4).
  void grow(WatchList& list);
  [[nodiscard]] bool in_block(const Watcher* p) const noexcept;
  void release() noexcept;

  std::vector<WatchList> lists_;
  Watcher* block_ = nullptr;
  std::size_t block_size_ = 0;
};

class Reason {
 public:
  constexpr Reason() = default;

  [[nodiscard]] static Reason none() noexcept { return Reason{}; }
  [[nodiscard]] static Reason clause(ClauseRef cr) noexcept {
    Reason r;
    r.cref_ = cr;
    return r;
  }
  [[nodiscard]] static Reason binary(Lit other) noexcept {
    Reason r;
    r.cref_ = kBinaryTag;
    r.other_ = other;
    return r;
  }

  [[nodiscard]] bool is_none() const noexcept { return cref_ == kNullClauseRef; }
  [[nodiscard]] bool is_binary() const noexcept { return cref_ == kBinaryTag; }
  [[nodiscard]] bool is_clause() const noexcept {
    return cref_ != kNullClauseRef && cref_ != kBinaryTag;
  }

  /// Valid only when is_clause().
  [[nodiscard]] ClauseRef cref() const noexcept { return cref_; }
  /// GC remap hook; callers must only use it when is_clause().
  void set_cref(ClauseRef cr) noexcept { cref_ = cr; }
  /// The other (false) literal of the implicit binary clause; only binary.
  [[nodiscard]] Lit other() const noexcept { return other_; }

  friend bool operator==(Reason, Reason) = default;

 private:
  /// Distinct from kNullClauseRef; the arena's overflow guard aborts long
  /// before real refs could reach either sentinel.
  static constexpr ClauseRef kBinaryTag = kNullClauseRef - 1;

  ClauseRef cref_ = kNullClauseRef;
  Lit other_{};
};

}  // namespace msropm::sat
