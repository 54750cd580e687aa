#pragma once
// Per-attempt resource governance for the solver stack.
//
// A ResourceBudget caps what one solve attempt may consume: memory (the
// solver's clause-arena words plus its watch-list accounting model),
// conflicts, and propagations. Wall time is deliberately NOT a field here —
// it rides the existing util::StopToken deadline (StopSource::
// token_with_deadline), which every engine already polls; a deadline breach
// surfaces as LimitReason::kDeadline.
//
// Contract (see src/util/README.md for the full catalog):
//   - The limits bound one attempt: a single-shot sat::Solver's solve(), or
//     one portfolio strategy attempt.
//   - A breach unwinds cleanly to the engine's "unknown" result (never a
//     crash, never a wrong verdict) with the reason recorded in the engine's
//     stats/result struct as a LimitReason.
//   - A default-constructed (unlimited) budget changes no behavior and adds
//     at most one predictable branch per conflict to the search hot path.

#include <cstdint>

namespace msropm::util {

/// Why an attempt stopped short of a definitive answer. kInjected is
/// reserved for util::FaultInjector trips (fault_injector.hpp), so tests can
/// tell a deliberately killed attempt from a genuine resource breach.
enum class LimitReason : std::uint8_t {
  kNone = 0,      ///< no limit involved (completed, or plain cancellation)
  kMemory,        ///< memory budget breached (arena + watch accounting)
  kConflicts,     ///< conflict cap reached
  kPropagations,  ///< propagation cap reached
  kDeadline,      ///< StopToken wall-clock deadline expired
  kInjected,      ///< a FaultInjector fault point fired
};

[[nodiscard]] constexpr const char* to_string(LimitReason reason) noexcept {
  switch (reason) {
    case LimitReason::kNone: return "none";
    case LimitReason::kMemory: return "memory";
    case LimitReason::kConflicts: return "conflicts";
    case LimitReason::kPropagations: return "propagations";
    case LimitReason::kDeadline: return "deadline";
    case LimitReason::kInjected: return "injected";
  }
  return "?";
}

/// Per-attempt limits. 0 always means "unlimited" so the default budget is
/// a no-op, and `limited()` is the cheap gate engines hoist out of their
/// inner loops.
struct ResourceBudget {
  /// Memory cap in bytes over the solver's accounting model: clause-arena
  /// words (4 bytes each, tracked at ClauseArena growth) plus 8 bytes per
  /// attached watcher (the watch-list reservation model). This is a
  /// deterministic model of the dominant allocations, not an malloc census:
  /// it is bit-identical across runs, which crash-free degradation tests
  /// require and a heap probe cannot give.
  std::uint64_t max_memory_bytes = 0;
  /// Conflict cap of the attempt.
  std::uint64_t max_conflicts = 0;
  /// Propagation cap of the attempt.
  std::uint64_t max_propagations = 0;

  [[nodiscard]] constexpr bool limited() const noexcept {
    return (max_memory_bytes | max_conflicts | max_propagations) != 0;
  }
};

}  // namespace msropm::util
