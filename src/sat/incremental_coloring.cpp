#include "msropm/sat/incremental_coloring.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "msropm/obs/obs.hpp"

namespace msropm::sat {

namespace {

/// Greedy coloring in degree order: a cheap, always-valid upper bound on the
/// chromatic number (never worse than max_degree + 1). chromatic_search uses
/// it to cap the sweep palette, so the incremental encoding never carries
/// colors no query could need.
unsigned greedy_coloring_bound(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return 0;
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&g](graph::NodeId a, graph::NodeId b) {
              return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b)
                                                : a < b;
            });
  constexpr std::uint32_t kUncolored = ~std::uint32_t{0};
  std::vector<std::uint32_t> color(n, kUncolored);
  std::vector<std::uint8_t> used;
  unsigned bound = 0;
  for (const graph::NodeId v : order) {
    used.assign(bound + 2, 0);
    for (const graph::NodeId u : g.neighbors(v)) {
      if (color[u] != kUncolored) used[color[u]] = 1;
    }
    std::uint32_t c = 0;
    while (used[c]) ++c;
    color[v] = c;
    bound = std::max(bound, static_cast<unsigned>(c) + 1);
  }
  return bound;
}

void accumulate_stats(SolverStats& into, const SolverStats& from) {
  into.decisions += from.decisions;
  into.propagations += from.propagations;
  into.conflicts += from.conflicts;
  into.restarts += from.restarts;
  into.learnt_clauses += from.learnt_clauses;
  into.removed_learnts += from.removed_learnts;
  into.blocker_skips += from.blocker_skips;
  into.binary_propagations += from.binary_propagations;
  into.heap_decisions += from.heap_decisions;
  into.gc_runs += from.gc_runs;
  into.gc_freed_words += from.gc_freed_words;
  into.arena_alloc_words += from.arena_alloc_words;
  into.arena_peak_words = std::max(into.arena_peak_words, from.arena_peak_words);
  if (from.limit_reason != util::LimitReason::kNone) {
    into.limit_reason = from.limit_reason;
  }
}

}  // namespace

IncrementalColoringSolver::IncrementalColoringSolver(
    const graph::Graph& g, unsigned max_colors,
    IncrementalColoringOptions options)
    : g_(&g), max_colors_(max_colors), min_colors_(1) {
  if (max_colors_ == 0 || max_colors_ > 255) {
    // graph::Color is uint8_t; a palette past 255 cannot even be decoded.
    throw std::invalid_argument(
        "IncrementalColoringSolver: max_colors must be in [1, 255]");
  }
  min_colors_ = std::min(std::max(options.min_colors, 1u), max_colors_);
  enc_ = encode_coloring(g, max_colors_,
                         {.symmetry_breaking = options.symmetry_breaking});
  // Selector variables and activation clauses x_{v,c} -> s_c for every
  // switchable color. Appending them after the node/color block keeps
  // ColoringEncoding::var_of (and decode) valid unchanged.
  selectors_.reserve(max_colors_ - min_colors_);
  for (unsigned c = min_colors_; c < max_colors_; ++c) {
    const Var s = enc_.cnf.new_var();
    selectors_.push_back(s);
    for (graph::NodeId v = 0; v < enc_.num_nodes; ++v) {
      enc_.cnf.add_binary(neg(enc_.var_of(v, c)), pos(s));
    }
  }
  solver_.emplace(enc_.cnf, options.solver);
}

SolveResult IncrementalColoringSolver::solve_k(unsigned k) {
  if (k < min_colors_ || k > max_colors_) {
    throw std::invalid_argument(
        "IncrementalColoringSolver::solve_k: k = " + std::to_string(k) +
        " outside [" + std::to_string(min_colors_) + ", " +
        std::to_string(max_colors_) + "]");
  }
  // Pin every selector: s_c for enabled colors (keeps the search out of the
  // selector variables entirely), ~s_c for disabled ones (propagates every
  // x_{v,c} of a disabled color to false through the activation clauses).
  assumptions_.clear();
  assumptions_.reserve(selectors_.size());
  for (std::size_t i = 0; i < selectors_.size(); ++i) {
    const unsigned c = min_colors_ + static_cast<unsigned>(i);
    assumptions_.push_back(c < k ? pos(selectors_[i]) : neg(selectors_[i]));
  }
  // One span per incremental round: the nested sat.solve span carries the
  // search detail, this one pins which k the round queried.
  static const obs::MetricId t_solve_k = obs::timer("chromatic.solve_k");
  static const obs::MetricId c_rounds = obs::counter("chromatic.rounds");
  obs::Span span("chromatic.solve_k", t_solve_k);
  span.arg("k", k);
  const std::uint64_t conflicts_before = solver_->stats().conflicts;
  const SolveResult result = solver_->solve(assumptions_);
  span.arg("conflicts", solver_->stats().conflicts - conflicts_before);
  span.arg("result", static_cast<std::uint64_t>(result));
  if (obs::metrics_enabled()) obs::add(c_rounds, 1);
  ++solve_calls_;
  if (result == SolveResult::kSat) {
    coloring_ = enc_.decode(solver_->model());
    // Tripwire, not a hot path: one O(V + E) scan per SAT verdict catches a
    // broken activation encoding or decode before any caller trusts the
    // coloring.
    if (!graph::is_proper_coloring(*g_, coloring_, k)) {
      throw std::logic_error(
          "IncrementalColoringSolver::solve_k: decoded coloring is not a "
          "proper " +
          std::to_string(k) + "-coloring");
    }
  }
  return result;
}

const SolverStats& IncrementalColoringSolver::stats() const noexcept {
  return solver_->stats();
}

bool IncrementalColoringSolver::cancelled() const noexcept {
  return solver_->cancelled();
}

bool IncrementalColoringSolver::formula_unsat() const noexcept {
  return solver_->formula_unsat();
}

const std::vector<Lit>& IncrementalColoringSolver::failed_assumptions()
    const noexcept {
  return solver_->failed_assumptions();
}

ChromaticSearchOutcome chromatic_search(const graph::Graph& g, unsigned max_k,
                                        ChromaticSearchOptions options) {
  ChromaticSearchOutcome out;
  if (g.num_nodes() == 0) {
    out.chromatic = 0;  // the empty graph is 0-colorable under any bound
    return out;
  }
  if (g.num_edges() == 0) {
    out.lower_bound = 1;
    out.upper_bound = 1;
    // Edgeless needs exactly one color — which still has to fit the bound
    // (max_k == 0 means "no colors allowed" and must stay nullopt).
    if (max_k >= 1) {
      out.chromatic = 1;
      out.coloring.assign(g.num_nodes(), 0);
    }
    return out;
  }
  const auto clique = greedy_clique(g);
  const unsigned lb =
      std::max<unsigned>(2, static_cast<unsigned>(clique.size()));
  out.lower_bound = lb;
  // The clique members are pairwise adjacent, so chromatic >= lb is a
  // certificate: every K below the seed would be a wasted UNSAT solve (on
  // King's graphs, omega = 4 kills the K in {2, 3} rounds outright).
  if (lb > max_k) return out;
  if (lb > 255) {
    // graph::Color is uint8_t, so the palette cannot even be represented.
    // This is a search limitation, NOT a proof that chromatic > max_k.
    out.incomplete = true;
    return out;
  }
  const unsigned uncapped_ub = std::min(max_k, greedy_coloring_bound(g));
  const unsigned ub = std::min(uncapped_ub, 255u);
  out.upper_bound = ub;

  SolverOptions profile;
  profile.conflict_limit = options.conflict_limit;
  profile.budget = options.budget;
  profile.stop = options.stop;

  if (options.incremental) {
    // Phase 1: probe the clique seed on a MINIMAL palette (max_colors = lb,
    // so no selectors and no activation clauses at all). When the seed is
    // already chromatic — every clique-tight instance, including the paper's
    // King's grids — this is byte-for-byte the same encoding and solve the
    // from-scratch baseline performs, so the incremental mode costs nothing.
    {
      IncrementalColoringOptions probe_options;
      probe_options.min_colors = lb;
      probe_options.symmetry_breaking = options.symmetry_breaking;
      probe_options.solver = profile;
      IncrementalColoringSolver probe(g, lb, probe_options);
      const SolveResult result = probe.solve_k(lb);
      ++out.solve_calls;
      out.stats = probe.stats();
      if (result == SolveResult::kSat) {
        out.chromatic = lb;
        out.coloring = probe.coloring();
        return out;
      }
      if (result == SolveResult::kUnknown) {
        out.incomplete = true;
        out.cancelled = probe.cancelled();
        out.limit = probe.stats().limit_reason;
        return out;
      }
    }
    if (lb >= ub) return out;  // the probe exhausted the palette budget
    // Phase 2: sweep the remaining K range in palette CHUNKS of two colors.
    // Within a chunk one multi-shot solver shares its encoding and learnt
    // clauses (the UNSAT round primes the SAT round); the chunk bound keeps
    // the encoded palette within one color of the round being decided, so
    // the formula never grows far past what the from-scratch baseline would
    // encode — an oversized palette measurably derails the SAT round's
    // search trajectory.
    unsigned k = lb + 1;
    while (k <= ub && !out.chromatic) {
      const unsigned chunk_max = std::min(ub, k + 1);
      IncrementalColoringOptions inc_options;
      inc_options.min_colors = k;
      inc_options.symmetry_breaking = options.symmetry_breaking;
      inc_options.solver = profile;
      IncrementalColoringSolver inc(g, chunk_max, inc_options);
      for (; k <= chunk_max; ++k) {
        const SolveResult result = inc.solve_k(k);
        ++out.solve_calls;
        if (result == SolveResult::kSat) {
          out.chromatic = k;
          out.coloring = inc.coloring();
          break;
        }
        if (result == SolveResult::kUnknown) {
          out.incomplete = true;
          out.cancelled = inc.cancelled();
          out.limit = inc.stats().limit_reason;
          break;
        }
        if (inc.formula_unsat()) {
          // Not even chunk_max-colorable: skip straight past the chunk.
          k = chunk_max + 1;
          break;
        }
      }
      accumulate_stats(out.stats, inc.stats());
      if (out.incomplete) break;
    }
  } else {
    ColoringEncodeOptions encode_options;
    encode_options.symmetry_breaking = options.symmetry_breaking;
    for (unsigned k = lb; k <= ub; ++k) {
      auto outcome =
          solve_exact_coloring_detailed(g, k, encode_options, profile);
      ++out.solve_calls;
      accumulate_stats(out.stats, outcome.solver_stats);
      if (outcome.result == SolveResult::kSat) {
        out.chromatic = k;
        out.coloring = std::move(*outcome.coloring);
        break;
      }
      if (outcome.result == SolveResult::kUnknown) {
        // kUnknown is either the stop token or the per-K conflict budget.
        out.incomplete = true;
        out.cancelled = options.stop.stop_requested();
        out.limit = outcome.solver_stats.limit_reason;
        break;
      }
    }
  }
  // When the uint8_t representability cap (not max_k or the greedy bound)
  // truncated the sweep, an exhausted search proves nothing about max_k.
  if (!out.chromatic && ub < uncapped_ub) out.incomplete = true;
  return out;
}

std::optional<unsigned> chromatic_number(const graph::Graph& g,
                                         unsigned max_k) {
  return chromatic_search(g, max_k).chromatic;
}

}  // namespace msropm::sat
