#include "core/single_class.h"

#include <algorithm>

#include "core/decompose.h"
#include "streaming/memory_meter.h"
#include "util/require.h"

namespace wmatch::core {

namespace {

/// Translates an augmenting path of the layered graph (compressed-id edge
/// sequence) back to a walk in G.
std::vector<Edge> translate_walk(const LayeredGraph& lg,
                                 const std::vector<Edge>& layered_path) {
  std::vector<Edge> walk;
  walk.reserve(layered_path.size());
  for (const Edge& e : layered_path) {
    walk.push_back({lg.original[e.u], lg.original[e.v], e.w});
  }
  return walk;
}

}  // namespace

SingleClassResult find_class_augmentations(const GraphView& g,
                                           const Matching& m,
                                           Weight w_class,
                                           const TauConfig& tau_cfg,
                                           const SingleClassOptions& opts,
                                           UnweightedMatcher& matcher,
                                           Rng& rng) {
  SingleClassResult result;
  const Weight unit = quantum(w_class, tau_cfg);
  const int umax = max_units(tau_cfg);

  // Semi-streaming accounting for this class: what the per-class instance
  // of the reduction *stores* between passes (the stream itself is free).
  // All charges are deterministic functions of (g, m, w_class, seed), so
  // the peak is thread-count invariant and safe to sum across classes at
  // the round barrier (see DESIGN.md §5).
  MemoryMeter meter;
  std::size_t candidate_words = 0;

  // Candidate augmentations pooled over all bipartitions and tau pairs.
  // (Divergence from the paper's Line 13 — see file comment in
  // single_class.h.)
  std::vector<Augmentation> candidates;

  // Host-side layered-build scratch, shared by every build of this class
  // and freed with it; not model memory, so the meter does not see it
  // (DESIGN.md §10).
  LayeredGraphBuilder builder;

  const std::size_t reps = std::max<std::size_t>(1, opts.parametrizations);
  for (std::size_t rep = 0; rep < reps; ++rep) {
  Parametrization par = random_parametrization(g.num_vertices(), rng);
  CrossingEdges crossing = crossing_edges(g, m, par);
  if (crossing.unmatched.empty()) continue;
  BucketedEdges buckets = bucket_edges(crossing, unit, umax);

  // The class-window edges kept across passes (out-of-class buckets are
  // already discarded by bucket_edges).
  std::size_t bucket_words = 0;
  for (const auto& b : buckets.matched) bucket_words += b.size();
  for (const auto& b : buckets.unmatched) bucket_words += b.size();
  meter.add(bucket_words);

  std::vector<TauPair> pairs = pairs_for_values(
      buckets.matched_values(), buckets.unmatched_values(), tau_cfg, rng);

  for (const TauPair& pair : pairs) {
    std::optional<LayeredGraph> built = builder.build(
        buckets, m, par, pair, g.num_vertices(), opts.runtime);
    if (!built) continue;
    const LayeredGraph& lg = *built;
    ++result.layered_graphs;

    // One layered subgraph lives at a time: the compressed vertex maps
    // (original, layer_of, side), the intermediate matching M_L', and the
    // black box's O(|V(L')|) working state (dist + match arrays).
    const std::size_t lg_words =
        3 * lg.lprime.num_vertices() + lg.ml.size();
    const std::size_t bb_words = 2 * lg.lprime.num_vertices();
    meter.add(lg_words + bb_words);

    Matching mprime = matcher.solve(lg.lprime, lg.side, opts.delta);
    meter.add(mprime.size());

    // Augmenting paths of M' w.r.t. ML' are path components of the
    // symmetric difference with one more M'-edge than ML'-edge.
    for (Augmentation& comp :
         symmetric_difference_components(mprime, lg.ml)) {
      if (comp.is_cycle) continue;
      std::size_t in_mprime = 0;
      for (const Edge& e : comp.edges) {
        if (mprime.contains(e)) ++in_mprime;
      }
      if (2 * in_mprime <= comp.edges.size()) continue;  // not augmenting

      std::vector<Edge> walk = translate_walk(lg, comp.edges);
      Augmentation best;
      Weight best_gain = 0;
      for (Augmentation& piece : decompose_walk(walk)) {
        if (!piece.is_valid_alternating(m)) continue;
        if (!opts.enable_cycles) {
          if (piece.is_cycle) continue;
          // Classic path augmentations only: every removed matched edge
          // must lie on the path itself.
          std::size_t on_path_matched = 0;
          for (const Edge& e : piece.edges) {
            if (m.contains(e)) ++on_path_matched;
          }
          if (piece.matching_neighborhood(m).size() != on_path_matched) {
            continue;
          }
        }
        Weight gain = piece.gain(m);
        if (gain > best_gain) {
          best_gain = gain;
          best = std::move(piece);
        }
      }
      if (best_gain > 0) {
        const std::size_t words = best.edges.size();
        meter.add(words);  // pooled candidate, held until selection
        candidate_words += words;
        candidates.push_back(std::move(best));
      }
    }
    meter.sub(lg_words + bb_words + mprime.size());  // subgraph retired
  }
  meter.sub(bucket_words);  // class window dropped with the bipartition
  }  // parametrization repetitions
  meter.sub(candidate_words);
  result.stored_words_peak = meter.peak();

  // Greedy selection by decreasing gain; keep vertex-disjoint ones.
  std::vector<std::pair<Weight, std::size_t>> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    order.emplace_back(candidates[i].gain(m), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<Augmentation> sorted;
  sorted.reserve(candidates.size());
  for (const auto& [gain, idx] : order) sorted.push_back(std::move(candidates[idx]));

  for (std::size_t idx : select_disjoint(sorted, m)) {
    Weight gain = sorted[idx].gain(m);
    WMATCH_ASSERT(gain > 0);
    result.total_gain += gain;
    result.augmentations.push_back(std::move(sorted[idx]));
  }
  return result;
}

}  // namespace wmatch::core
