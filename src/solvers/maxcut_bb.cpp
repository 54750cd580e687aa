#include "msropm/solvers/maxcut_bb.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "msropm/solvers/sa_potts.hpp"
#include "msropm/util/rng.hpp"

namespace msropm::solvers {

namespace {

class BbSearch {
 public:
  BbSearch(const graph::Graph& g, const MaxCutBbOptions& options)
      : g_(g), options_(options), n_(g.num_nodes()) {
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), graph::NodeId{0});
    // High-degree-first tightens the bound early.
    std::stable_sort(order_.begin(), order_.end(),
                     [&g](graph::NodeId a, graph::NodeId b) {
                       return g.degree(a) > g.degree(b);
                     });
    side_.assign(n_, 2);  // 2 = unassigned
    links_.assign(n_, {0, 0});
    unassigned_edges_ = g.num_edges();

    // Warm start: seed the incumbent with a quick K = 2 anneal (its
    // conflicts are the uncut edges) so the first descent prunes
    // aggressively. If SA already found the optimum, the search still
    // certifies it (no bound can exceed it).
    util::Rng rng(12345);
    SaPottsOptions sa;
    sa.num_colors = 2;
    sa.sweeps = 300;
    SaPottsResult warm = solve_sa_potts(g, sa, rng);
    best_cut_ = g.num_edges() - warm.conflicts;
    best_sides_ = std::move(warm.colors);
  }

  MaxCutBbResult run() {
    dfs(0, 0);
    MaxCutBbResult r;
    r.sides = best_sides_;
    r.cut = best_cut_;
    r.optimal = !aborted_;
    r.nodes_explored = nodes_;
    return r;
  }

 private:
  /// Admissible upper bound on the completed cut: decided cut edges, plus
  /// every unassigned-unassigned edge (each could still be cut), plus each
  /// unassigned vertex's better side choice against the assigned sides.
  [[nodiscard]] std::size_t bound(std::size_t cut_so_far,
                                  std::size_t next_index) const {
    std::size_t b = cut_so_far + unassigned_edges_;
    for (std::size_t i = next_index; i < n_; ++i) {
      const auto v = order_[i];
      b += std::max(links_[v][0], links_[v][1]);
    }
    return b;
  }

  void dfs(std::size_t index, std::size_t cut_so_far) {
    if (aborted_) return;
    ++nodes_;
    if (options_.node_limit != 0 && nodes_ > options_.node_limit) {
      aborted_ = true;
      return;
    }
    if (index == n_) {
      if (cut_so_far > best_cut_) {
        best_cut_ = cut_so_far;
        best_sides_.assign(side_.begin(), side_.end());
      }
      return;
    }
    const auto v = order_[index];
    // Assigning v to side s cuts its edges into the opposite assigned side.
    // Descend into the higher-gain side first; pin v0 to side 0 (symmetry).
    const std::uint8_t first =
        links_[v][1] >= links_[v][0] ? 0 : 1;
    const int branches = index == 0 ? 1 : 2;
    for (int attempt = 0; attempt < branches; ++attempt) {
      const std::uint8_t s =
          attempt == 0 ? first : static_cast<std::uint8_t>(1 - first);
      const std::size_t child_cut = cut_so_far + links_[v][1 - s];
      assign(v, s);
      if (bound(child_cut, index + 1) > best_cut_) {
        dfs(index + 1, child_cut);
      }
      unassign(v, s);
    }
  }

  void assign(graph::NodeId v, std::uint8_t s) {
    side_[v] = s;
    for (const auto nb : g_.neighbors(v)) {
      if (side_[nb] == 2) {
        ++links_[nb][s];
        --unassigned_edges_;
      }
    }
  }

  void unassign(graph::NodeId v, std::uint8_t s) {
    side_[v] = 2;
    for (const auto nb : g_.neighbors(v)) {
      if (side_[nb] == 2) {
        --links_[nb][s];
        ++unassigned_edges_;
      }
    }
  }

  const graph::Graph& g_;
  MaxCutBbOptions options_;
  std::size_t n_;
  std::vector<graph::NodeId> order_;
  std::vector<std::uint8_t> side_;
  /// links_[v][s]: edges from unassigned v into assigned side s.
  std::vector<std::array<std::size_t, 2>> links_;
  std::size_t unassigned_edges_ = 0;
  std::size_t best_cut_ = 0;
  model::CutAssignment best_sides_;
  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

MaxCutBbResult solve_maxcut_bb(const graph::Graph& g, MaxCutBbOptions options) {
  if (g.num_nodes() == 0) {
    return MaxCutBbResult{{}, 0, true, 0};
  }
  BbSearch search(g, options);
  return search.run();
}

}  // namespace msropm::solvers
