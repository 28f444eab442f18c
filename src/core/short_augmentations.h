// Constructive witness for Lemma 4.9 / Theorem 4.7: if
// w(M) <= w(M*)/(1+eps), there is a vertex-disjoint collection of *short*
// augmentations with total gain >= eps^2 w(M*)/200, each with comparable
// edge weights (properties (A)-(E) of Lemma 4.9).
//
// This module extracts such a collection given M and M* by following the
// lemma's proof: decompose M △ M* into alternating components, delete
// every L-th M*-edge (L = ceil(4/eps)) for the best of L offsets, then
// prune light edges and pieces violating the gain ratio. It exists to
// *validate* the structural theorem empirically
// (ShortAugs.MeetsLemmaGainBound and ShortAugs.PiecesAreShortAndSound; the
// e7 preset sweeps the reductions it explains); the actual algorithms
// never see M*.
#pragma once

#include <vector>

#include "graph/augmentation.h"
#include "graph/graph.h"
#include "graph/matching.h"
#include "runtime/runtime.h"

namespace wmatch::core {

struct ShortAugmentationsResult {
  std::vector<Augmentation> collection;  ///< vertex-disjoint pieces
  Weight total_gain = 0;                 ///< sum of w(C∩M*) - w(C_M)
  std::size_t max_piece_edges = 0;       ///< longest piece (edges)
};

/// The L offset trials are independent and run on the runtime thread pool
/// selected by `rt`; the winner (lowest offset among maximum gains, same
/// as the sequential scan) is identical for any thread count.
ShortAugmentationsResult short_augmentations(
    const Matching& m, const Matching& m_star, double epsilon,
    const runtime::RuntimeConfig& rt = {});

}  // namespace wmatch::core
