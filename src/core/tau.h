// Good (tau^A, tau^B) pairs (Table 1) for the layered-graph filtering.
//
// Thresholds are stored as non-negative integers in *granularity units*:
// the weight quantum is U = max(1, floor(granularity * W)) and the
// threshold value tau * W of the paper corresponds to units * U here. A
// matched edge passes layer t iff w in ((a_t - 1) U, a_t U]; an unmatched
// edge passes between layers t, t+1 iff w in [b_t U, (b_t + 1) U).
//
// Substitution note (DESIGN.md §3.3): the paper's grid step is eps^12 and
// the full enumeration of good pairs is astronomically large; it is only
// used to prove worst-case completeness. We keep the *soundness* condition
// exactly — sum(b) - sum(a) >= 1 unit, so every augmenting path found in a
// layered graph has strictly positive gain — and generate a practical
// family of pairs: exhaustive profiles for small k, uniform profiles for
// longer paths/cycles, and weight-histogram-guided samples.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/matching.h"
#include "util/rng.h"

namespace wmatch::core {

struct TauPair {
  std::vector<int> tau_a;  ///< k+1 per-layer matched thresholds (units)
  std::vector<int> tau_b;  ///< k between-layer unmatched thresholds (units)

  std::size_t num_layers() const { return tau_a.size(); }
  friend bool operator==(const TauPair&, const TauPair&) = default;
};

struct TauConfig {
  /// Weight quantum as a fraction of W.
  double granularity = 0.125;
  /// Maximum number of layers (k+1). Paper: 2/eps * 16/eps + 1.
  std::size_t max_layers = 6;
  /// Upper bound on sum(b) in units relative to W: sum(b)*U <= (1+slack)*W.
  double slack = 1.0;
  /// Cap on the good pairs emitted (exhaustive part first), counted
  /// before deduplication: a repeated profile uses up budget, so the
  /// returned (deduplicated) list can be shorter than the cap.
  std::size_t max_pairs = 4000;
};

/// Validates the Table 1 conditions (in units): sizes, non-negativity,
/// b_t >= 1, interior a_t >= 1, sum(b) <= ceil((1+slack)/granularity),
/// sum(b) - sum(a) >= 1.
bool is_good_pair(const TauPair& pair, const TauConfig& cfg);

/// Generates good pairs over the full unit grid: exhaustive for 2 and 3
/// layers (budget permitting), uniform profiles for deeper layered graphs,
/// plus `rng`-sampled non-uniform deep profiles. All returned pairs
/// satisfy is_good_pair.
std::vector<TauPair> generate_good_pairs(const TauConfig& cfg, Rng& rng);

/// Value-driven generation (the practical path used by Algorithm 4): the
/// candidate thresholds are restricted to the quantized weights that
/// actually occur in the graph for the class at hand — `a_vals` holds the
/// distinct rounded-up matched-edge units, `b_vals` the distinct
/// rounded-down unmatched-edge units. Emits, in priority order: all
/// 2-layer profiles, all 3-layer profiles with free endpoints, uniform
/// deep profiles, then random samples of the remaining 3-layer and deep
/// non-uniform spaces. Generation stops once cfg.max_pairs good pairs have
/// been emitted, duplicates included; the sampling budgets are measured in
/// the same raw count. The returned list is deduplicated on every exit
/// path (first occurrence kept, priority order preserved).
std::vector<TauPair> pairs_for_values(const std::vector<int>& a_vals,
                                      const std::vector<int>& b_vals,
                                      const TauConfig& cfg, Rng& rng);

/// The unit budget ceil((1+slack)/granularity) (Table 1 property (E)).
int max_units(const TauConfig& cfg);

/// The constructive recipe of Lemma 4.12: the pair induced by a concrete
/// alternating edge sequence (matched weights `a_w`, unmatched weights
/// `b_w`, |a_w| == |b_w| + 1) for quantum U. Returns the pair (which may
/// fail is_good_pair if the sequence's gain is below one unit).
TauPair induced_pair(const std::vector<Weight>& a_w,
                     const std::vector<Weight>& b_w, Weight unit);

/// The weight quantum U for a given class weight W.
Weight quantum(Weight w_class, const TauConfig& cfg);

}  // namespace wmatch::core
