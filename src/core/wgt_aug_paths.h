// Wgt-Aug-Paths (Algorithm 1, Section 3.2.1): weighted 3-augmentations via
// unweighted augmenting paths.
//
// Initialized with a matching M0, the algorithm
//   * marks each M0-edge independently with probability 1/2 (guessed
//     "middle" edges of weighted 3-augmentations),
//   * partitions the marked edges into geometric weight classes
//     Wi = [2^{i-1}, 2^i) and runs a dedicated Unw-3-Aug-Paths instance
//     per class,
//   * runs Approx-Wgt-Matching (a local-ratio instance, >= 1/4-approx) on
//     the *excess* weights w'(e) = w(e) - w(M0(u)) - w(M0(v)) of edges
//     heavier than both incident matched edges.
// Feed-Edge applies the filtering thresholds of Lines 7-15 (with
// parameter alpha); Finalize returns the better of
//   M1 = M0 patched with the excess-weight matching, and
//   M2 = M0 augmented by the recovered 3-augmentations, largest weight
//        class first.
#pragma once

#include <map>
#include <span>

#include "baselines/local_ratio.h"
#include "core/unw_three_aug.h"
#include "graph/matching.h"
#include "util/rng.h"

namespace wmatch::core {

struct WgtAugPathsConfig {
  double alpha = 0.02;  ///< slack parameter of the filtering thresholds
  double beta = 0.1;    ///< Unw-3-Aug-Paths recovery parameter
  /// Ablation toggle (WgtAugPaths.AblationCanLoseWeight, next to the e9
  /// preset): when false, edges are forwarded to the per-class augmenters
  /// without the weight filtering of Lines 9-15, so unweighted augmenting
  /// paths may lose weight when applied.
  bool filtering = true;
};

class WgtAugPaths {
 public:
  /// Marks middle-edge guesses using `rng` and sets up the per-class
  /// augmenter instances.
  WgtAugPaths(const Matching& m0, const WgtAugPathsConfig& cfg, Rng& rng);

  /// Processes one edge of the (remaining) stream.
  void feed(const Edge& e);

  /// Returns the better of M1 / M2 (see file comment).
  Matching finalize() const;

  /// M1 only: M0 patched with the excess-weight matching.
  Matching finalize_excess() const;

  /// M2 only: M0 augmented by the recovered 3-augmentations. Exposed for
  /// the filtering ablation (WgtAugPaths.AblationCanLoseWeight):
  /// finalize() can never drop below w(M0) because M1 >= M0 by
  /// construction, so the damage done by unfiltered augmentations is only
  /// visible on this branch.
  Matching finalize_augmented() const;

  /// Total edges stored across all per-class support sets plus the
  /// local-ratio stack (semi-streaming accounting).
  std::size_t stored_edges() const;

  const Matching& initial() const { return m0_; }
  bool is_marked(Vertex v) const;

 private:
  static int weight_class(Weight w);

  Matching m0_;
  WgtAugPathsConfig cfg_;
  std::vector<char> marked_;  // per-vertex: incident M0-edge is marked
  std::map<int, UnwThreeAugPaths> per_class_;
  baselines::LocalRatio excess_;  // Approx-Wgt-Matching on w'
};

}  // namespace wmatch::core
