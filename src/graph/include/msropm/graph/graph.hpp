#pragma once
// Immutable simple undirected graph in CSR (compressed sparse row) form.
//
// All problem instances in the paper (King's graphs of 49..2116 nodes) and all
// solver substrates (SAT encoder, phase engine coupling network, circuit
// netlist) consume this structure. Node ids are dense [0, n). Edges are
// stored once in the edge list (u < v) and twice in the CSR adjacency, whose
// 32-bit offsets cap a graph at 2^31 - 1 edges.

#include <cstdint>
#include <span>
#include <vector>

namespace msropm::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Undirected edge with canonical ordering u < v.
struct Edge {
  NodeId u;
  NodeId v;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph;

/// Mutable accumulator for edges; finalizes into an immutable Graph.
/// Duplicate edges and self-loops are rejected (the Potts formulation assumes
/// a simple graph).
///
/// Nothing is stored per node: edges go to one flat list, and duplicates are
/// found in an open-addressing hash set of packed (u << 32 | v) keys whose
/// size follows the edges added, not the nodes declared. build() orders the
/// edges with two stable counting sorts and fills the CSR arrays in that
/// order, so a builder for 2^26 isolated nodes costs only the Graph's
/// offsets array.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  /// Add undirected edge {u, v}. Returns false (and ignores) duplicates;
  /// throws std::invalid_argument on self-loops or out-of-range ids, and
  /// std::length_error past the 2^31 - 1 edges 32-bit CSR offsets can hold.
  bool add_edge(NodeId u, NodeId v);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Build the immutable graph: lexicographic edge list and sorted adjacency
  /// in O(n + m), by counting sort.
  [[nodiscard]] Graph build() const;

 private:
  void grow_table();

  std::size_t n_;
  std::vector<Edge> edges_;           // insertion order, u < v
  std::vector<std::uint64_t> table_;  // hash set of edge keys, 0 = empty slot
};

class Graph {
 public:
  /// Empty graph with n isolated nodes.
  explicit Graph(std::size_t num_nodes = 0);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Neighbors of node u, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const;
  [[nodiscard]] std::size_t degree(NodeId u) const;
  [[nodiscard]] std::size_t max_degree() const noexcept;
  [[nodiscard]] double average_degree() const noexcept;

  /// Canonical (u < v) edge list.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }
  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_.at(e); }

  /// True if {u, v} is an edge (binary search over sorted adjacency).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.offsets_ == b.offsets_ && a.edges_ == b.edges_;
  }

 private:
  friend class GraphBuilder;
  std::vector<std::uint32_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;       // size 2m
  std::vector<Edge> edges_;             // size m, u < v, lexicographic
};

}  // namespace msropm::graph
