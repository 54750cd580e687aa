#pragma once
// Deterministic fault injection for the solver stack.
//
// A process-global injector with named fault points (sites) compiled into
// the engines' safe unwind boundaries: before a propagate round, before
// conflict analysis, at learnt-DB reduction/GC entry, before an arena
// allocation, between the machine runner's replica batches, and at
// portfolio-worker attempt start. When a site "fires", the engine unwinds exactly like a
// cooperative cancellation and records util::LimitReason::kInjected —
// faults may only degrade a result to unknown/best-effort, never corrupt
// state or flip a verdict (the chaos suite's contract, tests/chaos_test.cpp).
//
// Overhead contract (mirrors the msropm::obs gate): an UNCONFIGURED injector
// costs one relaxed atomic load and a predicted branch per fault point —
// hard-gated at <= 8 ns by BM_FaultGateOverhead in bench/bench_micro_perf.cpp.
// All bookkeeping lives behind the out-of-line should_fire() slow path.
//
// Configuration is a comma-separated spec, via MSROPM_FAULT in the
// environment (both CLIs call configure_from_env()) or --fault-spec:
//
//   SITE:N        fire on the Nth arrival at SITE (1-based), once
//   SITE:N:M      fire on the Nth arrival, then every Mth arrival after
//   SITE@P        fire each arrival with probability P in [0,1], decided by
//                 a deterministic hash of (seed, site, arrival index)
//   seed=S        seed for the probabilistic mode (default 1)
//   stall-ms=T    sleep duration when the `stall` site fires (default 20)
//
// Site names: alloc (arena allocation), propagate, analyze, gc,
// step (machine runner, between replica batches), stall (portfolio worker attempt), all (every
// site at once).
//
// Determinism: given the same spec and a single-threaded engine, arrival
// counters advance identically run to run, so the exact same attempts fail.
// Under a multi-worker portfolio the per-site arrival ORDER is racy (counts
// are atomic, interleaving is not), which is fine for chaos testing — the
// asserted invariants (no crash, no verdict flip) are order-independent.
//
// Thread safety: should_fire()/hits()/arrivals() are safe from any thread;
// configure()/disarm() must not run concurrently with solvers (configure at
// process or test-case start, as the CLIs do).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace msropm::util {

enum class FaultSite : std::uint8_t {
  kArenaAlloc = 0,   ///< solver/ingest clause-arena allocation
  kPropagate,        ///< CDCL search loop, before a propagate round
  kAnalyze,          ///< CDCL search loop, before conflict analysis
  kGc,               ///< learnt-DB reduction / compacting GC entry
  kBatchStep,        ///< core::run_iterations, between replica batches
  kWorkerStall,      ///< portfolio worker attempt start (stalls, not kills)
};
inline constexpr std::size_t kNumFaultSites = 6;

[[nodiscard]] const char* to_string(FaultSite site) noexcept;

namespace fault {

namespace detail {
// The gate word: nonzero while any site is configured. Defined in
// fault_injector.cpp; inline accessor keeps the disabled path to one
// relaxed load + branch at every call site.
extern std::atomic<std::uint32_t> g_armed;
}  // namespace detail

/// True when any fault is configured. One relaxed load; THE hot-path gate.
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// Parse and install a fault spec (see file comment for the grammar).
/// An empty spec disarms. Returns false (and disarms) on a malformed spec.
bool configure(std::string_view spec);

/// configure() from the MSROPM_FAULT environment variable, if set.
/// Returns false only when the variable exists but failed to parse.
bool configure_from_env();

/// Remove every configured fault and reset all counters.
void disarm();

/// Slow path: count an arrival at `site` and decide whether it fires.
/// Always false when unarmed — but call armed() first; that is the contract
/// that keeps unconfigured fault points free.
[[nodiscard]] bool should_fire(FaultSite site) noexcept;

/// Hot-path helper: gate + slow path in one expression.
[[nodiscard]] inline bool fire(FaultSite site) noexcept {
  return armed() && should_fire(site);
}

/// Times `site` has fired / been reached since the last configure()/disarm().
[[nodiscard]] std::uint64_t hits(FaultSite site) noexcept;
[[nodiscard]] std::uint64_t arrivals(FaultSite site) noexcept;

/// Configured stall duration for kWorkerStall fires (milliseconds).
[[nodiscard]] unsigned stall_ms() noexcept;

/// Human-readable echo of the active configuration ("" when disarmed).
[[nodiscard]] std::string describe();

}  // namespace fault
}  // namespace msropm::util
