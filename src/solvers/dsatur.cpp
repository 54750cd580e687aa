#include "msropm/solvers/dsatur.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "msropm/obs/obs.hpp"

namespace msropm::solvers {

namespace {

// graph::Color is 8 bits wide; color 255 would be the 256th.
constexpr unsigned kMaxColors = 255;
constexpr unsigned kUncolored = ~0u;

// Saturation of one node: which colors its colored neighbors use, plus how
// many distinct ones that is. Colors stay below kMaxColors, so 256 bits hold
// them all.
struct Saturation {
  std::array<std::uint64_t, 4> mask{};
  unsigned count = 0;

  [[nodiscard]] bool has(unsigned c) const noexcept {
    return ((mask[c >> 6] >> (c & 63)) & 1u) != 0;
  }
  void set(unsigned c) noexcept { mask[c >> 6] |= std::uint64_t{1} << (c & 63); }
  /// Smallest color absent from the mask (256 when all are present).
  [[nodiscard]] unsigned first_free() const noexcept {
    for (unsigned w = 0; w < mask.size(); ++w) {
      if (~mask[w] != 0) return 64 * w + std::countr_zero(~mask[w]);
    }
    return 64 * mask.size();
  }
};

DsaturResult dsatur_impl(const graph::Graph& g, unsigned palette_cap) {
  static const obs::MetricId dsatur_timer = obs::timer("solvers.dsatur");
  obs::Span span("solvers.dsatur", dsatur_timer);
  const std::size_t n = g.num_nodes();
  span.arg("nodes", n);
  DsaturResult result;
  result.colors.assign(n, 0);
  if (n == 0) return result;

  // Degree-then-id order, fixed for the whole run: rank 0 is the node of
  // largest degree, ties to the smaller id (a stable counting sort).
  const std::size_t max_degree = g.max_degree();
  std::vector<std::size_t> bucket_start(max_degree + 2, 0);
  for (std::size_t u = 0; u < n; ++u) {
    ++bucket_start[max_degree - g.degree(static_cast<graph::NodeId>(u)) + 1];
  }
  for (std::size_t b = 1; b < bucket_start.size(); ++b) {
    bucket_start[b] += bucket_start[b - 1];
  }
  std::vector<graph::NodeId> by_rank(n);
  std::vector<std::uint32_t> rank(n);
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t r =
        bucket_start[max_degree - g.degree(static_cast<graph::NodeId>(u))]++;
    by_rank[r] = static_cast<graph::NodeId>(u);
    rank[u] = static_cast<std::uint32_t>(r);
  }

  // Uncolored nodes of positive saturation sit in a lazy max-heap keyed on
  // (saturation, -rank); an entry goes stale when its node is colored or
  // gains saturation (which pushes a fresh entry). Saturation-0 nodes need
  // no entries: they are picked in rank order once the heap runs dry.
  const auto key = [&](std::size_t v, unsigned sat) {
    return (std::uint64_t{sat} << 32) | (0xFFFFFFFFu - rank[v]);
  };
  std::priority_queue<std::uint64_t> heap;
  std::size_t next_rank = 0;

  std::vector<unsigned> assigned(n, kUncolored);
  std::vector<Saturation> saturation(n);
  std::array<std::size_t, kMaxColors> conflicts{};

  for (std::size_t round = 0; round < n; ++round) {
    // Pick max saturation, ties by degree, then by id.
    std::size_t pick = n;
    while (!heap.empty()) {
      const std::uint64_t top = heap.top();
      heap.pop();
      const std::size_t v = by_rank[0xFFFFFFFFu - (top & 0xFFFFFFFFu)];
      if (assigned[v] == kUncolored && saturation[v].count == (top >> 32)) {
        pick = v;
        break;
      }
    }
    if (pick == n) {
      while (assigned[by_rank[next_rank]] != kUncolored) ++next_rank;
      pick = by_rank[next_rank];
    }
    const auto u = static_cast<graph::NodeId>(pick);
    unsigned color = saturation[pick].first_free();
    if (palette_cap != 0 && color >= palette_cap) {
      // Bounded: choose the least-conflicting color in the palette (the
      // smallest on ties). Here palette_cap <= color <= kMaxColors.
      std::fill_n(conflicts.begin(), palette_cap, 0);
      for (graph::NodeId v : g.neighbors(u)) {
        if (assigned[v] < palette_cap) ++conflicts[assigned[v]];
      }
      color = static_cast<unsigned>(
          std::min_element(conflicts.begin(), conflicts.begin() + palette_cap) -
          conflicts.begin());
    } else if (color >= kMaxColors) {
      throw std::runtime_error("dsatur: more than 255 colors needed");
    }
    assigned[pick] = color;
    result.colors_used = std::max(result.colors_used, color + 1);
    for (graph::NodeId v : g.neighbors(u)) {
      Saturation& s = saturation[v];
      if (assigned[v] == kUncolored && !s.has(color)) {
        s.set(color);
        heap.push(key(v, ++s.count));
      }
    }
  }

  for (std::size_t u = 0; u < n; ++u) {
    result.colors[u] = static_cast<graph::Color>(assigned[u]);
  }
  span.arg("colors", result.colors_used);
  return result;
}

}  // namespace

DsaturResult solve_dsatur(const graph::Graph& g) { return dsatur_impl(g, 0); }

DsaturResult solve_dsatur_bounded(const graph::Graph& g, unsigned num_colors) {
  if (num_colors == 0) throw std::invalid_argument("dsatur_bounded: K >= 1");
  return dsatur_impl(g, num_colors);
}

}  // namespace msropm::solvers
