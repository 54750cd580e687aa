#include "msropm/graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace msropm::graph {

namespace {

// Home slot of an edge key in a power-of-two table (Fibonacci hashing: the
// top bits of key * 2^64/phi).
std::size_t home_slot(std::uint64_t key, std::size_t table_size) {
  const int shift = 64 - std::countr_zero(table_size);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift);
}

// The CSR offsets are 32-bit and count 2m half-edges.
constexpr std::size_t kMaxEdges = (std::size_t{1} << 31) - 1;

// Turn the per-key counts held at off[k + 1] into run starts held at the same
// place: off[k + 1]++ is then key k's fill cursor, and once every item is
// placed off[k] is where key k's run starts (the CSR offsets).
void counts_to_cursors(std::vector<std::uint32_t>& off) {
  std::uint32_t start = 0;
  for (std::size_t k = 1; k < off.size(); ++k) {
    const std::uint32_t count = off[k];
    off[k] = start;
    start += count;
  }
}

}  // namespace

GraphBuilder::GraphBuilder(std::size_t num_nodes) : n_(num_nodes) {}

void GraphBuilder::grow_table() {
  // Keep the load at most 1/2; rehash from the edge list, which holds every
  // key exactly once.
  const std::size_t size = table_.empty() ? 16 : 2 * table_.size();
  table_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (const Edge& e : edges_) {
    const std::uint64_t key = (std::uint64_t{e.u} << 32) | e.v;
    std::size_t i = home_slot(key, size);
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = key;
  }
}

bool GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u >= n_ || v >= n_) throw std::invalid_argument("GraphBuilder: node id out of range");
  if (u == v) throw std::invalid_argument("GraphBuilder: self-loop rejected");
  if (u > v) std::swap(u, v);
  if (2 * (edges_.size() + 1) > table_.size()) grow_table();
  // v > u >= 0, so a key is never 0, the empty-slot marker.
  const std::uint64_t key = (std::uint64_t{u} << 32) | v;
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home_slot(key, table_.size());
  for (; table_[i] != 0; i = (i + 1) & mask) {
    if (table_[i] == key) return false;
  }
  if (edges_.size() == kMaxEdges) {
    throw std::length_error("GraphBuilder: more edges than 32-bit CSR offsets hold");
  }
  table_[i] = key;
  edges_.push_back(Edge{u, v});
  return true;
}

Graph GraphBuilder::build() const {
  Graph g(n_);
  if (edges_.empty()) return g;
  // The offsets array doubles as the bucket cursors of every counting sort,
  // so nothing else is allocated per node.
  std::vector<std::uint32_t>& off = g.offsets_;
  // Lexicographic edge list: stable counting sort by v, then by u.
  std::vector<Edge> by_v(edges_.size());
  for (const Edge& e : edges_) ++off[e.v + 1];
  counts_to_cursors(off);
  for (const Edge& e : edges_) by_v[off[e.v + 1]++] = e;
  std::fill(off.begin(), off.end(), 0);
  g.edges_.resize(edges_.size());
  for (const Edge& e : by_v) ++off[e.u + 1];
  counts_to_cursors(off);
  for (const Edge& e : by_v) g.edges_[off[e.u + 1]++] = e;
  // CSR adjacency, filled in edge order: node x first receives its lower
  // neighbours (edges (u, x), ascending u), then its upper ones (edges
  // (x, v), ascending v), so every list comes out sorted.
  std::fill(off.begin(), off.end(), 0);
  for (const Edge& e : g.edges_) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  counts_to_cursors(off);
  g.adjacency_.resize(2 * g.edges_.size());
  for (const Edge& e : g.edges_) {
    g.adjacency_[off[e.u + 1]++] = e.v;
    g.adjacency_[off[e.v + 1]++] = e.u;
  }
  return g;
}

Graph::Graph(std::size_t num_nodes) : offsets_(num_nodes + 1, 0) {}

std::span<const NodeId> Graph::neighbors(NodeId u) const {
  if (u >= num_nodes()) throw std::out_of_range("Graph::neighbors");
  return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::size_t Graph::degree(NodeId u) const {
  if (u >= num_nodes()) throw std::out_of_range("Graph::degree");
  return offsets_[u + 1] - offsets_[u];
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t u = 0; u < num_nodes(); ++u) {
    best = std::max<std::size_t>(best, offsets_[u + 1] - offsets_[u]);
  }
  return best;
}

double Graph::average_degree() const noexcept {
  const std::size_t n = num_nodes();
  if (n == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / static_cast<double>(n);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes() || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace msropm::graph
