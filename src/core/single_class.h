// Algorithm 4 (Theorem 4.8): augmentations for a single augmentation class.
//
// For a fixed class weight W: draw a random L/R bipartition, bucket the
// crossing edges by quantized weight (with the gap index of
// layered_graph.h), and enumerate the good (tau^A, tau^B) pairs, dropping
// as they are drawn the useless ones, whose L' holds no augmenting path
// (BucketedEdges::admits, a layer-0 -> layer-k reach walk over the gap
// index); on the last bipartition, samples deeper than any admitted good
// pair (BucketedEdges::max_admitted_layers) are not even drawn. For
// every pair left, build the layered
// graph L' in O(|L'|), solve it with the unweighted bipartite
// black box, extract the augmenting paths of
// M' ∪ M_{L'}, translate them back to G, decompose every translated walk
// (Lemma 4.11) and keep its best-gain component. The returned collection
// is vertex-disjoint and every element has strictly positive gain.
//
// Divergence from the paper's Line 13 (documented in DESIGN.md): instead
// of keeping only the single best tau pair's augmentation set, we pool
// candidates from all pairs and greedily select disjoint ones by gain —
// a strict improvement that does not affect soundness.
#pragma once

#include <vector>

#include "core/layered_graph.h"
#include "core/matcher.h"
#include "core/tau.h"
#include "graph/augmentation.h"
#include "graph/graph_view.h"
#include "graph/matching.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace wmatch::core {

struct SingleClassResult {
  std::vector<Augmentation> augmentations;  ///< disjoint, positive gain
  Weight total_gain = 0;     ///< sum of gains against the input matching
  std::size_t layered_graphs = 0;  ///< non-trivial layered graphs solved
  /// Peak words this class stores at once under the semi-streaming
  /// convention (streaming/memory_meter.h): the bucketed class-window
  /// edges, one layered subgraph's vertex maps + intermediate matching +
  /// black-box working state (O(n) per class), and the candidate pool.
  /// A deterministic function of the inputs, so per-class peaks can be
  /// summed at the round barrier regardless of thread count.
  std::size_t stored_words_peak = 0;
};

struct SingleClassOptions {
  double delta = 0.1;  ///< black-box approximation slack
  /// Number of independent random L/R bipartitions tried per invocation.
  /// Each short augmentation survives one random bipartition with
  /// probability 2^-|C|; repetitions trade black-box work for per-round
  /// recall (the paper achieves the same by iterating Theorem 4.8).
  std::size_t parametrizations = 1;
  /// Ablation toggle (MainAlg.CycleAblationCannotImprovePerfectMatching
  /// asserts the e8 preset's claim with it off). When false, only
  /// *classic* augmenting paths are applied: no cycles, and no paths that
  /// remove matched edges off the path (in weighted semantics such paths
  /// are cycle-equivalent — they can improve a perfect matching, which is
  /// exactly the capability the ablation is meant to remove).
  bool enable_cycles = true;
  /// Unread: a layered build costs O(output) and runs on the class's own
  /// thread. Kept so callers that set it (main_alg, perfbench's replay)
  /// compile unchanged.
  runtime::RuntimeConfig runtime;
};

/// Algorithm 4's tau step under one parametrization: the good pairs over
/// the buckets' value sets (pairs_for_values_if) that buckets.admits
/// accepts, i.e. the pairs whose layered graph can augment, in
/// pairs_for_values order. When `bounded`, the sampler is also bounded by
/// buckets.max_admitted_layers(cfg.max_layers): the list is the same, but
/// `rng` ends in an unspecified state, so the caller must not read it
/// again. A bounded call whose bound leaves priority 4 or 5 undrawn
/// (value sets non-empty, the max_pairs cap aside) adds one to the
/// always-on solver.tau_sampler_skips counter.
std::vector<TauPair> class_tau_pairs(const BucketedEdges& buckets,
                                     const TauConfig& cfg, Rng& rng,
                                     bool bounded);

/// The tau pairs are generated internally per class via class_tau_pairs,
/// restricted to the quantized weights that occur under this class's unit
/// (see tau.h for the substitution rationale) and filtered by
/// BucketedEdges::admits, so the black box is called only on layered
/// graphs that can augment; the augmentations are those of solving every
/// pair (DESIGN.md §2). The last parametrization's sampler is bounded, so
/// `rng`'s final state is unspecified; every earlier draw, the pairs and
/// the black-box calls are those of the unbounded step.
SingleClassResult find_class_augmentations(const GraphView& g,
                                           const Matching& m,
                                           Weight w_class,
                                           const TauConfig& tau_cfg,
                                           const SingleClassOptions& opts,
                                           UnweightedMatcher& matcher,
                                           Rng& rng);

}  // namespace wmatch::core
