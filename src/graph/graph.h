// Simple undirected weighted graph builder: a validated edge list. This
// is the *construction-time* representation used by the generators and
// I/O; algorithms consume the frozen, immutable CSR `GraphView`
// (graph/graph_view.h) built from it. Graph itself holds no adjacency —
// the old lazily-built CSR (a data race when two jobs first-touched a
// shared cached instance) is gone.
#pragma once

#include <span>
#include <vector>

#include "graph/types.h"

namespace wmatch {

class Graph {
 public:
  Graph() = default;

  /// A graph on n vertices with no edges.
  explicit Graph(std::size_t n) : n_(n) {}

  /// Builds from an explicit edge list. Rejects self-loops, out-of-range
  /// endpoints, non-positive weights, and duplicate (parallel) edges.
  Graph(std::size_t n, std::vector<Edge> edges);

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const Edge> edges() const { return edges_; }
  const Edge& edge(std::size_t i) const { return edges_[i]; }

  /// Appends an edge (same validation as the constructor).
  void add_edge(Vertex u, Vertex v, Weight w);

  /// Room for `m` edges in all, so that many add_edge calls never move
  /// the list.
  void reserve(std::size_t m) { edges_.reserve(m); }

  /// Total weight of all edges.
  Weight total_weight() const;

  /// Largest edge weight (0 for an empty graph).
  Weight max_weight() const;

  /// Surrenders the edge list (used by GraphView's freeze constructor).
  std::vector<Edge> release_edges() && { return std::move(edges_); }

 private:
  std::size_t n_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace wmatch
