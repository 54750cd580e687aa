#include "msropm/solvers/digital_divide.hpp"

#include <stdexcept>

#include "msropm/core/shil_plan.hpp"
#include "msropm/graph/partition.hpp"
#include "msropm/solvers/sa_potts.hpp"

namespace msropm::solvers {

DigitalDivideResult solve_digital_divide(const graph::Graph& g,
                                         const DigitalDivideOptions& options,
                                         util::Rng& rng) {
  if (!core::valid_color_count(options.num_colors)) {
    throw std::invalid_argument("digital_divide: colors must be 2^m");
  }
  const unsigned num_stages = core::stages_for_colors(options.num_colors);
  const std::size_t n = g.num_nodes();

  DigitalDivideResult result;
  result.stages = num_stages;

  // Current partition of original node ids; starts as one group.
  std::vector<graph::InducedSubgraph> groups;
  groups.emplace_back();
  {
    // Build the identity induced subgraph.
    graph::GraphBuilder b(n);
    for (const graph::Edge& e : g.edges()) b.add_edge(e.u, e.v);
    groups.front().graph = b.build();
    groups.front().to_original.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      groups.front().to_original[i] = static_cast<graph::NodeId>(i);
    }
  }

  // Each node's bits so far, packed as a SHIL_SEL register
  // (core/shil_plan.hpp).
  std::vector<std::uint8_t> sel(n, 0);
  result.colors.resize(n);
  SaPottsOptions kernel;  // per-stage max-cut: a 2-coloring anneal
  kernel.num_colors = 2;

  for (unsigned stage = 1; stage <= num_stages; ++stage) {
    std::vector<graph::InducedSubgraph> next_groups;
    for (const auto& group : groups) {
      // "Remap": encode the sub-problem for the solver (one operation per
      // sub-problem) and move its coupling matrix in.
      ++result.remap_operations;
      result.bytes_transferred +=
          group.graph.num_edges() * sizeof(graph::Edge) +  // couplings in
          group.to_original.size() * sizeof(graph::NodeId);

      const model::CutAssignment sides =
          solve_sa_potts(group.graph, kernel, rng).colors;

      // "Save state": spins out of the solver into memory.
      result.bytes_transferred += sides.size() * sizeof(std::uint8_t);

      for (std::size_t local = 0; local < sides.size(); ++local) {
        const graph::NodeId i = group.to_original[local];
        if (stage < num_stages) {
          sel[i] = static_cast<std::uint8_t>(2 * sel[i] + sides[local]);
        } else {
          result.colors[i] = core::final_color(sel[i], sides[local], num_stages);
        }
      }
      if (stage < num_stages) {
        auto halves = graph::split_by_labels(group.graph, sides, 2);
        for (auto& half : halves) {
          // Rebase the id map onto original ids.
          for (auto& id : half.to_original) id = group.to_original[id];
          next_groups.push_back(std::move(half));
        }
        // "Reload": partitioned state must be read back before next stage.
        result.bytes_transferred += sides.size() * sizeof(std::uint8_t);
      }
    }
    groups = std::move(next_groups);
  }

  return result;
}

}  // namespace msropm::solvers
