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
  std::size_t num_between_edges = 0;  ///< |Y|: 0 means the graph is useless
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

  /// Group i's key, ascending: (tag_u * (umax + 1) + b) * (umax + 1) +
  /// tag_v. Its edges are grouped[group_begin[i] .. group_begin[i + 1]).
  std::vector<std::uint64_t> group_keys;
  std::vector<std::uint32_t> group_begin;  ///< one per group, plus the end
  std::vector<Edge> grouped;               ///< index edges, group by group
};

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax);

/// Builds the layered graphs of many tau pairs, reusing its scratch from
/// build to build. A build costs O(k log groups) until it knows whether
/// the pair is useful, and O(output) after: the gaps are read straight
/// from the gap index, and only a useful build copies its X edges and
/// interns its vertices, in compressed-id slots indexed by t*n + v,
/// allocated by the first useful build, grown to the deepest pair seen,
/// and reset between builds by bumping an epoch stamp rather than by
/// clearing. A class keeps one builder for all its (parametrization,
/// pair) builds, so its ~480 builds share one O(max_layers * n) block.
/// Builders of different classes are independent; one builder runs one
/// build at a time.
class LayeredGraphBuilder {
 public:
  /// The layered graph L' for one good pair over pre-bucketed edges, or
  /// nullopt when it has no between-layer edge (the pair is useless).
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

/// One-shot form of LayeredGraphBuilder::build: a useless pair comes back
/// with `layers` set and everything else empty.
LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m, const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& rt = {});

}  // namespace wmatch::core
