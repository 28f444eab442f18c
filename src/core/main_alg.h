// Algorithm 3 / Theorems 4.1 and 1.2: the (1 - eps)-approximate maximum
// weight matching built from unweighted bipartite matching.
//
// One improvement round (Theorem 4.1) runs Algorithm 4 for every weight on
// the geometric ladder W = base^i ("in parallel": the model cost charged is
// the maximum black-box invocation cost, not the sum), then greedily
// applies non-conflicting augmentations starting from the heaviest class.
// The full algorithm (Theorem 1.2) iterates rounds starting from the empty
// matching until a round yields no gain (the paper iterates a fixed
// f(eps) number of times; gain-based stopping dominates that in practice
// and is capped by max_iterations).
#pragma once

#include <vector>

#include "core/matcher.h"
#include "core/single_class.h"
#include "core/tau.h"
#include "graph/graph_view.h"
#include "graph/matching.h"
#include "runtime/arena.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace wmatch::core {

struct ReductionConfig {
  double epsilon = 0.1;   ///< target approximation (1 - epsilon)
  TauConfig tau;          ///< granularity / layer / budget knobs
  double delta = 0.0;     ///< black-box slack; 0 selects epsilon/2
  double class_base = 2.0;          ///< geometric ladder base
  std::size_t max_classes = 48;     ///< ladder length cap
  std::size_t max_iterations = 0;   ///< 0 selects ceil(8/epsilon)
  /// Ablation toggle; MainAlg.CycleAblationCannotImprovePerfectMatching
  /// asserts the e8 preset's claim with it off.
  bool enable_cycles = true;
  /// Random bipartitions per class per round (recall vs work; see
  /// SingleClassOptions::parametrizations).
  std::size_t parametrizations = 1;
  /// Stop after this many consecutive zero-gain rounds (rounds are
  /// randomized, so one empty round is weak evidence of convergence).
  std::size_t stall_patience = 3;
  /// Host-parallelism knob, forwarded to every parallel region under this
  /// entry point (layered-graph builds; an MPC black box additionally
  /// reads the knob in its own MpcConfig). Results are seed-deterministic
  /// for any thread count.
  runtime::RuntimeConfig runtime;

  double effective_delta() const {
    return delta > 0.0 ? delta : epsilon / 2.0;
  }
};

struct MainAlgResult {
  Matching matching;
  std::size_t iterations = 0;
  std::size_t classes = 0;           ///< ladder length used
  std::size_t bb_invocations = 0;    ///< black-box calls in total
  std::size_t bb_total_cost = 0;     ///< sum of invocation costs
  /// The paper's model cost: per iteration all classes/pairs run in
  /// parallel, so an iteration costs max invocation cost + O(1); this is
  /// the sum of those charges over iterations.
  std::size_t parallel_model_cost = 0;
  /// Peak stored words of the multipass reduction under the semi-streaming
  /// convention: the matching (one word per vertex) plus the heaviest
  /// round's per-class state, where the round charge is the *sum* of the
  /// per-class peaks (classes run simultaneously in the model). Summed at
  /// the round barrier in ladder order, so the value is bit-identical for
  /// any thread count.
  std::size_t memory_peak_words = 0;
  Weight total_gain = 0;
};

/// One round of Theorem 4.1 on top of `m` (applies augmentations in
/// place). Returns the gain achieved. The per-class searches run on
/// cfg.runtime's thread pool with forked sub-matchers (see
/// UnweightedMatcher::fork_for_class) merged at the end-of-round barrier;
/// `stored_words_out`, when given, receives the round's stored-word
/// charge (sum of per-class peaks). `arenas`, when given, supplies one
/// Arena per ladder slot for the forks' scratch state — the caller owns
/// the pool and must reset it between rounds (arena memory is dead once
/// this returns).
Weight improve_matching_once(const GraphView& g, Matching& m,
                             const ReductionConfig& cfg,
                             UnweightedMatcher& matcher, Rng& rng,
                             std::size_t* max_invocation_cost_out = nullptr,
                             std::size_t* stored_words_out = nullptr,
                             runtime::ArenaPool* arenas = nullptr);

/// Full (1-eps) algorithm starting from `initial` (empty by default).
/// Owns an ArenaPool that persists across rounds and is reset (not freed)
/// at each round barrier, so steady-state rounds fork their class
/// sub-matchers without heap traffic.
MainAlgResult maximum_weight_matching(const GraphView& g,
                                      const ReductionConfig& cfg,
                                      UnweightedMatcher& matcher, Rng& rng,
                                      const Matching* initial = nullptr);

}  // namespace wmatch::core
