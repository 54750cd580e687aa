#include "msropm/util/fault_injector.hpp"

#include <array>
#include <cstdlib>
#include <optional>

#include "msropm/util/strings.hpp"

namespace msropm::util {

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kArenaAlloc: return "alloc";
    case FaultSite::kPropagate: return "propagate";
    case FaultSite::kAnalyze: return "analyze";
    case FaultSite::kGc: return "gc";
    case FaultSite::kBatchStep: return "step";
    case FaultSite::kWorkerStall: return "stall";
  }
  return "?";
}

namespace fault {

namespace detail {
std::atomic<std::uint32_t> g_armed{0};
}  // namespace detail

namespace {

/// Per-site schedule. nth/every drive the counted mode, prob the seeded
/// probabilistic mode; both may be active on one site.
struct SiteConfig {
  std::uint64_t nth = 0;    ///< 0 = counted mode off
  std::uint64_t every = 0;  ///< 0 = fire once at nth, else every Mth after
  double prob = 0.0;        ///< 0 = probabilistic mode off
  [[nodiscard]] bool active() const noexcept { return nth != 0 || prob > 0.0; }
};

struct State {
  std::array<SiteConfig, kNumFaultSites> sites{};
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> arrivals{};
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> fires{};
  std::uint64_t seed = 1;
  unsigned stall_ms = 20;
  std::string spec;  ///< the accepted spec, for describe()
};

State& state() {
  static State s;
  return s;
}

/// splitmix64 finalizer: the probabilistic mode hashes (seed, site, arrival)
/// so a given arrival index fires identically run to run.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::optional<FaultSite> site_from_name(std::string_view name) noexcept {
  if (name == "alloc") return FaultSite::kArenaAlloc;
  if (name == "propagate") return FaultSite::kPropagate;
  if (name == "analyze") return FaultSite::kAnalyze;
  if (name == "gc") return FaultSite::kGc;
  if (name == "step") return FaultSite::kBatchStep;
  if (name == "stall") return FaultSite::kWorkerStall;
  return std::nullopt;
}

void reset_counters() {
  State& s = state();
  for (auto& a : s.arrivals) a.store(0, std::memory_order_relaxed);
  for (auto& f : s.fires) f.store(0, std::memory_order_relaxed);
}

bool apply_to_sites(std::string_view name, const SiteConfig& cfg) {
  State& s = state();
  if (name == "all") {
    for (SiteConfig& site : s.sites) {
      site.nth = cfg.nth;
      site.every = cfg.every;
      site.prob = cfg.prob;
    }
    return true;
  }
  const auto site = site_from_name(name);
  if (!site) return false;
  SiteConfig& dst = s.sites[static_cast<std::size_t>(*site)];
  dst.nth = cfg.nth;
  dst.every = cfg.every;
  dst.prob = cfg.prob;
  return true;
}

}  // namespace

bool configure(std::string_view spec) {
  disarm();
  const std::string_view trimmed = trim(spec);
  if (trimmed.empty()) return true;
  State& s = state();
  bool any_active = false;
  for (const std::string& raw : split(trimmed, ',')) {
    const std::string_view entry = trim(raw);
    if (entry.empty()) continue;
    if (starts_with(entry, "seed=")) {
      const auto v = parse_int(entry.substr(5));
      if (!v || *v < 0) { disarm(); return false; }
      s.seed = static_cast<std::uint64_t>(*v);
      continue;
    }
    if (starts_with(entry, "stall-ms=")) {
      const auto v = parse_int(entry.substr(9));
      if (!v || *v < 0) { disarm(); return false; }
      s.stall_ms = static_cast<unsigned>(*v);
      continue;
    }
    if (const auto at = entry.find('@'); at != std::string_view::npos) {
      // SITE@P: probabilistic.
      const auto p = parse_double(entry.substr(at + 1));
      if (!p || *p < 0.0 || *p > 1.0) { disarm(); return false; }
      SiteConfig cfg;
      cfg.prob = *p;
      if (!apply_to_sites(trim(entry.substr(0, at)), cfg)) { disarm(); return false; }
      any_active = any_active || cfg.prob > 0.0;
      continue;
    }
    // SITE:N or SITE:N:M.
    const auto parts = split(entry, ':');
    if (parts.size() < 2 || parts.size() > 3) { disarm(); return false; }
    const auto nth = parse_int(parts[1]);
    if (!nth || *nth <= 0) { disarm(); return false; }
    SiteConfig cfg;
    cfg.nth = static_cast<std::uint64_t>(*nth);
    if (parts.size() == 3) {
      const auto every = parse_int(parts[2]);
      if (!every || *every <= 0) { disarm(); return false; }
      cfg.every = static_cast<std::uint64_t>(*every);
    }
    if (!apply_to_sites(trim(parts[0]), cfg)) { disarm(); return false; }
    any_active = true;
  }
  if (any_active) {
    s.spec.assign(trimmed);
    detail::g_armed.store(1, std::memory_order_relaxed);
  }
  return true;
}

bool configure_from_env() {
  const char* env = std::getenv("MSROPM_FAULT");
  if (env == nullptr || *env == '\0') return true;
  return configure(env);
}

void disarm() {
  detail::g_armed.store(0, std::memory_order_relaxed);
  State& s = state();
  s.sites.fill(SiteConfig{});
  s.seed = 1;
  s.stall_ms = 20;
  s.spec.clear();
  reset_counters();
}

bool should_fire(FaultSite site) noexcept {
  if (!armed()) return false;
  State& s = state();
  const auto idx = static_cast<std::size_t>(site);
  const SiteConfig& cfg = s.sites[idx];
  if (!cfg.active()) return false;
  const std::uint64_t arrival =
      s.arrivals[idx].fetch_add(1, std::memory_order_relaxed) + 1;
  bool fired = false;
  if (cfg.nth != 0) {
    if (arrival == cfg.nth) {
      fired = true;
    } else if (cfg.every != 0 && arrival > cfg.nth &&
               (arrival - cfg.nth) % cfg.every == 0) {
      fired = true;
    }
  }
  if (!fired && cfg.prob > 0.0) {
    const std::uint64_t h =
        mix(s.seed ^ mix(static_cast<std::uint64_t>(idx) + 1) ^ arrival);
    // Top 53 bits as a uniform double in [0,1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    fired = u < cfg.prob;
  }
  if (fired) s.fires[idx].fetch_add(1, std::memory_order_relaxed);
  return fired;
}

std::uint64_t hits(FaultSite site) noexcept {
  return state().fires[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t arrivals(FaultSite site) noexcept {
  return state().arrivals[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

unsigned stall_ms() noexcept { return state().stall_ms; }

std::string describe() { return armed() ? state().spec : std::string{}; }

}  // namespace fault
}  // namespace msropm::util
