#include "msropm/model/maxcut.hpp"

#include <stdexcept>

namespace msropm::model {

std::size_t cut_value(const graph::Graph& g, const CutAssignment& sides) {
  if (sides.size() != g.num_nodes()) {
    throw std::invalid_argument("cut_value: assignment size mismatch");
  }
  std::size_t cut = 0;
  for (const graph::Edge& e : g.edges()) {
    cut += (sides[e.u] != sides[e.v]) ? 1 : 0;
  }
  return cut;
}

std::pair<std::size_t, CutAssignment> max_cut_bruteforce(const graph::Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n > 26) throw std::invalid_argument("max_cut_bruteforce: graph too large");
  if (n == 0) return {0, {}};
  std::size_t best_cut = 0;
  std::uint64_t best_bits = 0;
  // Node 0 fixed to side 0: halves the search space (cut is symmetric).
  const std::uint64_t limit = std::uint64_t{1} << (n - 1);
  const auto edges = g.edges();
  for (std::uint64_t bits = 0; bits < limit; ++bits) {
    const std::uint64_t assignment = bits << 1;  // node 0 = side 0
    std::size_t cut = 0;
    for (const graph::Edge& e : edges) {
      const auto su = (assignment >> e.u) & 1u;
      const auto sv = (assignment >> e.v) & 1u;
      cut += (su != sv) ? 1 : 0;
    }
    if (cut > best_cut) {
      best_cut = cut;
      best_bits = assignment;
    }
  }
  CutAssignment sides(n);
  for (std::size_t i = 0; i < n; ++i) {
    sides[i] = static_cast<std::uint8_t>((best_bits >> i) & 1u);
  }
  return {best_cut, sides};
}

std::vector<Spin> spins_from_cut(const CutAssignment& sides) {
  std::vector<Spin> spins(sides.size());
  for (std::size_t i = 0; i < sides.size(); ++i) {
    spins[i] = sides[i] == 0 ? Spin{1} : Spin{-1};
  }
  return spins;
}

std::pair<std::size_t, KCutAssignment> max_kcut_bruteforce(
    const graph::Graph& g, unsigned k) {
  const std::size_t n = g.num_nodes();
  if (n > 16 || k == 0 || k > 8) {
    throw std::invalid_argument("max_kcut_bruteforce: instance too large");
  }
  std::uint64_t states = 1;
  for (std::size_t i = 0; i < n; ++i) states *= k;
  std::size_t best = 0;
  KCutAssignment best_parts(n, 0);
  KCutAssignment parts(n, 0);
  for (std::uint64_t s = 0; s < states; ++s) {
    std::uint64_t x = s;
    for (std::uint8_t& part : parts) {
      part = static_cast<std::uint8_t>(x % k);
      x /= k;
    }
    const std::size_t cut = cut_value(g, parts);
    if (cut > best) {
      best = cut;
      best_parts = parts;
    }
  }
  return {best, best_parts};
}

double kcut_random_expectation(const graph::Graph& g, unsigned k) {
  if (k == 0) throw std::invalid_argument("kcut_random_expectation: k > 0");
  return static_cast<double>(g.num_edges()) *
         (1.0 - 1.0 / static_cast<double>(k));
}

}  // namespace msropm::model
