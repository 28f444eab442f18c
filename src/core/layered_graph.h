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
#pragma once

#include <optional>
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
};

CrossingEdges crossing_edges(const GraphView& g, const Matching& m,
                             const Parametrization& par);

/// Crossing edges bucketed by quantized unit value so that a layered graph
/// build touches only the edges its thresholds admit: bucket a of
/// `matched` holds w in ((a-1)U, aU], bucket b of `unmatched` holds
/// w in [bU, (b+1)U). Buckets above `umax` are discarded (out of class).
struct BucketedEdges {
  Weight unit = 1;
  std::vector<std::vector<Edge>> matched;    ///< index = units (1-based)
  std::vector<std::vector<Edge>> unmatched;  ///< index = units (1-based)

  /// Distinct non-empty bucket indices — the value sets fed to
  /// pairs_for_values.
  std::vector<int> matched_values() const;
  std::vector<int> unmatched_values() const;
};

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax);

/// Builds the layered graphs of many tau pairs, reusing its scratch from
/// build to build: presence and compressed-id slots indexed by t*n + v,
/// allocated by the first build that gets past the bucket-occupancy
/// reject, grown to the deepest pair seen, and reset between builds by
/// bumping an epoch stamp rather than by clearing. A class keeps one
/// builder for all its (parametrization, pair) builds, so its ~480 builds
/// share one O(max_layers * n) block. One build runs at a time per
/// builder (a build's gap filtering may read the scratch from several pool
/// threads); builders of different classes are independent.
class LayeredGraphBuilder {
 public:
  /// The layered graph L' for one good pair over pre-bucketed edges, or
  /// nullopt when it has no between-layer edge (the pair is useless). The
  /// per-gap candidate filtering runs on the runtime thread pool selected
  /// by `rt` when the gaps hold enough edges; the output is identical for
  /// any thread count and any earlier use of the builder.
  std::optional<LayeredGraph> build(const BucketedEdges& edges,
                                    const Matching& m,
                                    const Parametrization& par,
                                    const TauPair& tau, std::size_t n,
                                    const runtime::RuntimeConfig& rt = {});

 private:
  struct Slot {
    std::uint32_t present = 0;   ///< == epoch_: vertex has a kept X edge
    std::uint32_t interned = 0;  ///< == epoch_: `id` is this build's
    std::uint32_t id = 0;        ///< compressed id
  };
  struct RawEdge {
    std::size_t tu, tv;
    Vertex u, v;
    Weight w;
  };

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 0;
  std::vector<RawEdge> xedges_, yedges_;
};

/// One-shot form of LayeredGraphBuilder::build: a useless pair comes back
/// with `layers` set and everything else empty.
LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m, const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& rt = {});

}  // namespace wmatch::core
