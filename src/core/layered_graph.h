// Layered graphs (Definition 4.10) and graph parametrization (Section
// 4.3.1).
//
// Given a random L/R bipartition of V, a weight class W, a weight quantum
// U, and a good (tau^A, tau^B) pair, the layered graph consists of k+1
// copies of V where
//   * layer t keeps the matched L-R edge {u,v} iff
//     w in ((tau^A_t - 1) U, tau^A_t U],
//   * layers t -> t+1 are connected by unmatched edges going from an
//     R-vertex in layer t to an L-vertex in layer t+1 with
//     w in [tau^B_t U, (tau^B_t + 1) U),
//   * intermediate-layer vertices without a kept matched edge are removed,
//     and first/last-layer vertices without one survive only when they are
//     M-free and the corresponding endpoint threshold is 0.
// The construction guarantees (a) the graph is bipartite with the original
// sides, and (b) any augmenting path w.r.t. the intermediate matched edges
// translates to a walk in G with strictly positive gain (soundness of the
// filtering).
//
// We materialize only the *present* vertices (compressed ids) of L', the
// working graph of Algorithm 4 (first/last-layer matched edges removed).
// A vertex is present at layer t iff its matched edge lies in bucket
// tau^A_t, or, at an endpoint layer with tau^A_t = 0, iff it is M-free;
// so the between-layer edges of gap t are one group of the gap index that
// bucket_edges builds once per (class, parametrization), and a build
// costs what it emits (DESIGN.md §10).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/tau.h"
#include "graph/graph_view.h"
#include "graph/matching.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace wmatch::core {

/// L/R vertex bipartition: side[v] == 0 means L, 1 means R.
using Parametrization = std::vector<char>;

Parametrization random_parametrization(std::size_t n, Rng& rng);

struct LayeredGraph {
  GraphView lprime;             ///< compressed L' (intermediate X + all Y edges)
  std::vector<char> side;       ///< bipartition of lprime (original sides)
  Matching ml;                  ///< M restricted to L' (intermediate X edges)
  std::vector<Vertex> original; ///< compressed id -> original vertex
  std::vector<std::uint16_t> layer_of;  ///< compressed id -> layer (1-based)
  std::size_t layers = 0;       ///< k+1
  /// |Y|. 0 only in build_layered_graph's answer for a useless pair; a
  /// built L' holds an augmenting path, so it has at least one Y edge.
  std::size_t num_between_edges = 0;
};

/// Pre-filtered view of (G, M) under one parametrization: only L-R
/// crossing edges, split into matched / unmatched. Building this once per
/// (class, parametrization) makes layered-graph construction cheap.
struct CrossingEdges {
  std::vector<Edge> matched;    ///< oriented u in L, v in R
  std::vector<Edge> unmatched;  ///< oriented u in R, v in L
  std::vector<char> free;       ///< free[v]: v is M-free (one per vertex)
};

CrossingEdges crossing_edges(const GraphView& g, const Matching& m,
                             const Parametrization& par);

/// Crossing edges bucketed by quantized unit value so that a layered graph
/// build touches only the edges its thresholds admit: bucket a of
/// `matched` holds w in ((a-1)U, aU], bucket b of `unmatched` holds
/// w in [bU, (b+1)U). Buckets above `umax` are discarded (out of class).
///
/// The gap index serves the between-layer edges. A vertex has at most one
/// matched edge, so it gets one tag: a if its matched edge lies in
/// `matched[a]`, 0 if it is M-free, none otherwise (matched by a
/// non-crossing or out-of-window edge: such a vertex is in no layer). The
/// unmatched bucket edges with two tagged endpoints are grouped by
/// (tag(u), b, tag(v)), bucket order kept inside a group; only non-empty
/// groups are stored, under sorted keys. Gap t of a pair is then exactly
/// the group (tau_a[t], tau_b[t], tau_a[t+1]).
///
/// A BucketedEdges answers one admits() call at a time: the reach walk
/// keeps its stamps and frontiers in the object (a class's buckets live
/// on the class's own thread).
struct BucketedEdges {
  Weight unit = 1;
  std::vector<std::vector<Edge>> matched;    ///< index = units (1-based)
  std::vector<std::vector<Edge>> unmatched;  ///< index = units (1-based)

  /// Distinct non-empty bucket indices — the value sets fed to
  /// pairs_for_values.
  std::vector<int> matched_values() const;
  std::vector<int> unmatched_values() const;

  /// The unmatched edges of bucket b from a vertex tagged `tag_u` to one
  /// tagged `tag_v`, in bucket order; empty for any argument outside
  /// [0, umax] (b outside [1, umax]).
  std::span<const Edge> gap(int tag_u, int b, int tag_v) const;

  /// Whether the pair (tau_a, tau_b), |tau_a| == |tau_b| + 1, is useful:
  /// its layered graph L' holds an M_L'-augmenting path. Every
  /// intermediate vertex of L' is M_L'-matched and every Y edge runs from
  /// R at layer t to L at layer t+1, so such a path is an alternating path
  /// from layer 0 to layer k: Y edge, X edge, Y edge, ..., Y edge. Without
  /// one, M' xor M_L' has no augmenting component whatever the black box
  /// returns, so the pair is not built or solved.
  ///
  /// First the O(k) fast reject: every positive tau_a and every tau_b must
  /// name a non-empty in-window bucket. Then every gap's group is looked
  /// up (an empty one cuts every path). Then a walk over the gap index:
  /// the L vertices of layer 1 are the v ends of gap 0's group; from each
  /// L vertex of layer t its mate (`mate`) is the R vertex of layer t, and
  /// that vertex's edges in gap t's group (`by_u`) lead to layer t+1. The
  /// walk stops at the first edge into layer k. An intermediate tau_a of
  /// 0 admits no vertex. Vertices are stamped per layer, so a call costs
  /// O(k log groups) plus O(log |group|) per reached vertex, and allocates
  /// nothing once its frontiers have grown. This is LayeredGraphBuilder::
  /// build's reject test (build(pair).has_value()), and
  /// find_class_augmentations passes it to pairs_for_values_if.
  bool admits(std::span<const int> tau_a, std::span<const int> tau_b) const;

  /// Group i's key, ascending: (tag_u * (umax + 1) + b) * (umax + 1) +
  /// tag_v. Its edges are grouped[group_begin[i] .. group_begin[i + 1]).
  std::vector<std::uint64_t> group_keys;
  std::vector<std::uint32_t> group_begin;  ///< one per group, plus the end
  std::vector<Edge> grouped;               ///< index edges, group by group

  /// An index edge's endpoints: u in R, v in L.
  struct Arc {
    Vertex u = kNoVertex;
    Vertex v = kNoVertex;
    friend auto operator<=>(const Arc&, const Arc&) = default;
  };
  /// The reach walk's side index: group i's endpoints again, in
  /// by_u[group_begin[i] .. group_begin[i + 1]), sorted by (u, v).
  std::vector<Arc> by_u;
  /// mate[v]: v's M-mate when v's matched edge lies in a matched bucket,
  /// kNoVertex otherwise (one per vertex).
  std::vector<Vertex> mate;

 private:
  /// The index of group (tag_u, b, tag_v), or group_keys.size() when it
  /// is empty or an argument is out of range.
  std::size_t group_index(int tag_u, int b, int tag_v) const;

  mutable std::vector<std::uint32_t> stamp_;  ///< per vertex: last layer seen
  mutable std::uint32_t epoch_ = 0;           ///< one value per walked layer
  mutable std::vector<Vertex> frontier_, next_;
  mutable std::vector<std::span<const Arc>> steps_;  ///< one per gap
};

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax);

/// Builds the layered graphs of many tau pairs, reusing its scratch from
/// build to build. A build first runs BucketedEdges::admits (the reach
/// walk) and costs O(output) after: the gaps are read straight
/// from the gap index, and only a useful build copies its X edges and
/// interns its vertices, in compressed-id slots indexed by t*n + v,
/// allocated by the first useful build, grown to the deepest pair seen,
/// and reset between builds by bumping an epoch stamp rather than by
/// clearing. A class keeps one builder for all its (parametrization,
/// pair) builds, so they share one O(max_layers * n) block.
/// Builders of different classes are independent; one builder runs one
/// build at a time.
class LayeredGraphBuilder {
 public:
  /// The layered graph L' for one good pair over pre-bucketed edges, or
  /// nullopt when the pair is useless: exactly when
  /// edges.admits(tau.tau_a, tau.tau_b) is false, i.e. L' would hold no
  /// M_L'-augmenting path. A built L' is the whole layered graph of the
  /// pair (every gap's edges, dead ends included), not only the part on a
  /// layer-0 -> layer-k path.
  /// The build runs on the calling thread. `m` and `rt` are unread (M
  /// enters through the buckets' vertex tags) and kept so existing
  /// callers compile. The output is identical for any earlier use of the
  /// builder.
  std::optional<LayeredGraph> build(const BucketedEdges& edges,
                                    const Matching& m,
                                    const Parametrization& par,
                                    const TauPair& tau, std::size_t n,
                                    const runtime::RuntimeConfig& rt = {});

 private:
  struct Slot {
    std::uint32_t interned = 0;  ///< == epoch_: `id` is this build's
    std::uint32_t id = 0;        ///< compressed id
  };

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
  std::vector<std::span<const Edge>> gaps_;
};

/// One-shot form of LayeredGraphBuilder::build: a useless pair (admits
/// false) comes back with `layers` set and everything else empty, so
/// `num_between_edges > 0` is the same usefulness test as admits.
LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m, const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& rt = {});

}  // namespace wmatch::core
