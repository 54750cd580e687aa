// Map coloring: 4-color a real planar map (the 48 contiguous US states) on
// the MSROPM -- the classic COP the paper's introduction motivates ("graph
// coloring ... natively require[s] multivalued spins").
//
// The state adjacency graph is planar, so the four-color theorem guarantees
// a proper 4-coloring; the example shows the machine finding one and prints
// the result as a per-state color table plus the energy/accuracy metrics.
//
// Run: ./build/examples/map_coloring [iterations] [seed]

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "msropm/analysis/experiments.hpp"
#include "msropm/core/machine.hpp"
#include "msropm/core/runner.hpp"
#include "msropm/graph/coloring.hpp"
#include "msropm/graph/graph.hpp"
#include "msropm/model/potts.hpp"
#include "msropm/sat/coloring_encoder.hpp"

namespace {

constexpr std::array<std::string_view, 48> kStates{
    "AL", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "ID", "IL", "IN",
    "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS", "MO", "MT",
    "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA",
    "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY"};

// Land borders of the 48 contiguous states (pairs of indices into kStates).
constexpr std::array<std::array<int, 2>, 105> kBorders{{
    {0, 8},  {0, 21},  {0, 39},  {0, 7},   {1, 3},   {1, 25}, {1, 41},
    {1, 28}, {2, 15},  {2, 21},  {2, 22},  {2, 33},  {2, 39}, {2, 40},
    {3, 25}, {3, 34},  {4, 13},  {4, 24},  {4, 28},  {4, 41}, {4, 47},
    {5, 18}, {5, 29},  {5, 36},  {6, 17},  {6, 27},  {6, 35}, {7, 8},
    {8, 30}, {8, 37},  {8, 39},  {9, 23},  {9, 25},  {9, 34}, {9, 41},
    {9, 44}, {9, 46},  {10, 11}, {10, 12}, {10, 14}, {10, 22}, {10, 46},
    {11, 14}, {11, 19}, {11, 32}, {12, 20}, {12, 22}, {12, 24}, {12, 38},
    {12, 46}, {13, 22}, {13, 24}, {13, 33}, {14, 22}, {14, 32}, {14, 39},
    {14, 43}, {14, 45}, {15, 21}, {15, 40}, {16, 26}, {17, 35}, {17, 43},
    {17, 45}, {18, 26}, {18, 29}, {18, 36}, {18, 42}, {19, 32}, {19, 46},
    {20, 31}, {20, 38}, {20, 46}, {21, 39}, {22, 24}, {22, 33}, {22, 39},
    {23, 31}, {23, 38}, {23, 47}, {24, 38}, {24, 47}, {25, 34}, {25, 41},
    {26, 42}, {27, 29}, {27, 35}, {28, 33}, {28, 40}, {28, 41}, {29, 35},
    {29, 42}, {30, 37}, {30, 39}, {30, 43}, {31, 38}, {32, 35}, {32, 45},
    {33, 40}, {34, 44}, {35, 45}, {38, 47}, {39, 43}, {41, 47}, {43, 45},
}};

constexpr std::array<std::string_view, 4> kColorNames{"red", "green", "blue",
                                                      "yellow"};

}  // namespace

int main(int argc, char** argv) {
  using namespace msropm;

  const std::size_t iterations =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 40;
  const std::uint64_t seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 7;

  graph::GraphBuilder builder(kStates.size());
  for (const auto& [u, v] : kBorders) {
    builder.add_edge(static_cast<graph::NodeId>(u),
                     static_cast<graph::NodeId>(v));
  }
  const graph::Graph g = builder.build();
  std::printf("US state adjacency: %zu states, %zu borders\n", g.num_nodes(),
              g.num_edges());

  // The SAT baseline proves 4-colorability (four-color theorem in action).
  const auto exact = sat::solve_exact_coloring(g, 4);
  std::printf("SAT: 4-coloring %s\n", exact ? "exists" : "does NOT exist");

  const core::MultiStagePottsMachine machine(
      g, analysis::default_machine_config());
  core::RunnerOptions opts;
  opts.iterations = iterations;
  opts.seed = seed;
  const auto summary = core::run_iterations(machine, opts);

  const graph::Coloring& best = summary.best_coloring();
  std::printf("MSROPM best of %zu: accuracy %.3f (%zu conflicts), Potts "
              "energy %.0f\n",
              iterations, summary.best_accuracy,
              graph::count_conflicts(g, best),
              model::PottsModel(g, 4, 1.0).energy(best));

  std::printf("\n%-6s %-8s   %-6s %-8s   %-6s %-8s\n", "state", "color",
              "state", "color", "state", "color");
  for (std::size_t i = 0; i < kStates.size(); i += 3) {
    for (std::size_t j = i; j < i + 3 && j < kStates.size(); ++j) {
      std::printf("%-6s %-8s   ", std::string(kStates[j]).c_str(),
                  std::string(kColorNames[best[j]]).c_str());
    }
    std::printf("\n");
  }

  // Highlight any remaining conflicts (quasi-optimum runs).
  for (const auto eid : graph::conflicting_edges(g, best)) {
    const auto& e = g.edges()[eid];
    std::printf("conflict: %s - %s\n", std::string(kStates[e.u]).c_str(),
                std::string(kStates[e.v]).c_str());
  }
  return 0;
}
