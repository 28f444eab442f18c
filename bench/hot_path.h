// Inputs and checksums for the hot-path kernels: the reduction's tau-pair
// enumeration (unfiltered, filtered to the pairs that build, and bounded
// by the deepest admitted pair as a class's last parametrization runs
// it), edge bucketing and layered-graph builds, as
// find_class_augmentations runs them, and the Blossom solve of the
// random-arrival algorithm's edge set T.
//
// The inputs are the `ci` preset's bipartite reduction instance (n=200,
// m=800, uniform weights up to 4096, seed 1) under its greedy-by-weight
// matching, cut into the reduction's weight-class ladder; each class gets
// its own random parametrization, bucketed crossing edges and value sets.
// The Blossom input is the set T that rand_arr_matching hands to
// blossom_max_weight on the stream workload's erdos_renyi graph, and the
// Hopcroft-Karp input is one of the serve workload's exact-hk instances.
// bench_micro_kernels times the library over them; the tests feed the same
// inputs to the reference implementations and require equal checksums.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "api/instance.h"
#include "baselines/greedy.h"
#include "baselines/local_ratio.h"
#include "core/layered_graph.h"
#include "core/main_alg.h"
#include "core/single_class.h"
#include "core/tau.h"
#include "util/rng.h"

namespace wmatch::bench::hot_path {

struct ClassInput {
  core::Parametrization par;
  core::CrossingEdges crossing;     ///< bucket_edges input
  core::BucketedEdges buckets;      ///< library buckets (layered-build input)
  std::vector<int> a_vals, b_vals;  ///< pairs_for_values inputs
  std::uint64_t seed = 0;           ///< the class's pair-sampling seed
  std::vector<core::TauPair> pairs; ///< library pairs (layered-build input)
};

struct Inputs {
  GraphView g;
  Matching m;
  core::TauConfig tau;
  std::vector<ClassInput> classes;
};

inline Inputs ci_bipartite_inputs() {
  api::GenSpec spec;
  spec.generator = "bipartite";
  spec.n = 200;
  spec.m = 800;
  Inputs in;
  in.g = api::generate_instance(spec).graph;
  in.m = baselines::greedy_by_weight(in.g);

  // The reduction's class ladder: (max_layers + 1) * max_w halving down
  // to the lightest edge, as maximum_weight_matching builds it.
  const core::ReductionConfig cfg;
  Weight min_w = in.g.max_weight();
  for (const Edge& e : in.g.edges()) min_w = std::min(min_w, e.w);
  double w = static_cast<double>(in.g.max_weight()) *
             static_cast<double>(cfg.tau.max_layers + 1);
  in.tau = cfg.tau;
  Rng rng(1);
  while (w >= static_cast<double>(min_w) &&
         in.classes.size() < cfg.max_classes) {
    const Weight w_class = static_cast<Weight>(std::llround(w));
    w /= cfg.class_base;
    ClassInput c;
    c.par = core::random_parametrization(in.g.num_vertices(), rng);
    c.crossing = core::crossing_edges(in.g, in.m, c.par);
    c.buckets = core::bucket_edges(c.crossing, core::quantum(w_class, in.tau),
                                   core::max_units(in.tau));
    c.a_vals = c.buckets.matched_values();
    c.b_vals = c.buckets.unmatched_values();
    c.seed = rng.next();
    Rng pair_rng(c.seed);
    c.pairs = core::pairs_for_values(c.a_vals, c.b_vals, in.tau, pair_rng);
    in.classes.push_back(std::move(c));
  }
  return in;
}

inline std::uint64_t fold(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 0x100000001b3ULL;
}

/// Folds every pair `pairs(class_input, rng)` returns for each class, and
/// (with `fold_state`) the class's generator state after enumeration.
template <typename ClassPairsFn>
std::uint64_t class_pairs_checksum(const Inputs& in, ClassPairsFn&& pairs,
                                   bool fold_state = true) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ClassInput& c : in.classes) {
    Rng rng(c.seed);
    for (const core::TauPair& p : pairs(c, rng)) {
      h = fold(h, p.tau_a.size());
      for (int a : p.tau_a) h = fold(h, static_cast<std::uint64_t>(a));
      for (int b : p.tau_b) h = fold(h, static_cast<std::uint64_t>(b));
    }
    if (fold_state) h = fold(h, rng.next());
  }
  return h;
}

/// The tau-pairs kernel: every pair of every class, unfiltered.
/// `pairs(a_vals, b_vals, cfg, rng)` is pairs_for_values or a reference
/// with its signature.
template <typename PairsFn>
std::uint64_t tau_pairs_checksum(const Inputs& in, PairsFn&& pairs) {
  return class_pairs_checksum(in, [&](const ClassInput& c, Rng& rng) {
    return pairs(c.a_vals, c.b_vals, in.tau, rng);
  });
}

/// The tau-useful kernel: the pairs find_class_augmentations builds, i.e.
/// pairs_for_values_if filtered by the class's BucketedEdges::admits.
/// A reference with the same checksum keeps the pairs_for_values pairs
/// whose independently built layered graph holds an augmenting path.
inline std::uint64_t tau_useful_checksum(const Inputs& in) {
  return class_pairs_checksum(in, [&](const ClassInput& c, Rng& rng) {
    return core::pairs_for_values_if(
        c.a_vals, c.b_vals, in.tau, rng,
        [&c](std::span<const int> tau_a, std::span<const int> tau_b) {
          return c.buckets.admits(tau_a, tau_b);
        },
        in.tau.max_layers);
  });
}

/// The tau-bounded kernel: the class tau step of a class's last
/// parametrization (class_tau_pairs, bounded by max_admitted_layers).
/// Its generator state is unspecified, so only the pairs are folded:
/// they must hash like tau-useful's lists without the states.
inline std::uint64_t tau_bounded_checksum(const Inputs& in) {
  return class_pairs_checksum(
      in,
      [&](const ClassInput& c, Rng& rng) {
        return core::class_tau_pairs(c.buckets, in.tau, rng, true);
      },
      false);
}

/// Folds every class's buckets and gap index (each group's key and
/// edges, in index order). `bucket(crossing, unit, umax)` is bucket_edges
/// or a reference with its signature.
template <typename BucketFn>
std::uint64_t buckets_checksum(const Inputs& in, BucketFn&& bucket) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold_edges = [&h](std::span<const Edge> edges) {
    h = fold(h, edges.size());
    for (const Edge& e : edges) {
      h = fold(h, e.u);
      h = fold(h, e.v);
      h = fold(h, static_cast<std::uint64_t>(e.w));
    }
  };
  for (const ClassInput& c : in.classes) {
    const core::BucketedEdges b =
        bucket(c.crossing, c.buckets.unit, core::max_units(in.tau));
    for (const std::vector<Edge>& edges : b.matched) fold_edges(edges);
    for (const std::vector<Edge>& edges : b.unmatched) fold_edges(edges);
    for (std::size_t i = 0; i < b.group_keys.size(); ++i) {
      h = fold(h, b.group_keys[i]);
      fold_edges(std::span<const Edge>(b.grouped).subspan(
          b.group_begin[i], b.group_begin[i + 1] - b.group_begin[i]));
    }
  }
  return h;
}

/// Folds every field of every useful layered graph of every class pair
/// (compressed ids, layers, sides, edges in order, the intermediate
/// matching) and the index of every useless pair.
/// `build(class_input, pair)` returns the layered graph, or nullopt when
/// the pair has no between-layer edge.
template <typename BuildFn>
std::uint64_t layered_build_checksum(const Inputs& in, BuildFn&& build) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ClassInput& c : in.classes) {
    for (std::size_t i = 0; i < c.pairs.size(); ++i) {
      const std::optional<core::LayeredGraph> lg = build(c, c.pairs[i]);
      if (!lg) {
        h = fold(h, i);
        continue;
      }
      h = fold(h, lg->layers);
      h = fold(h, lg->num_between_edges);
      for (std::size_t v = 0; v < lg->original.size(); ++v) {
        h = fold(h, lg->original[v]);
        h = fold(h, lg->layer_of[v]);
        h = fold(h, static_cast<std::uint64_t>(lg->side[v]));
      }
      for (const Edge& e : lg->lprime.edges()) {
        h = fold(h, e.u);
        h = fold(h, e.v);
        h = fold(h, static_cast<std::uint64_t>(e.w));
      }
      for (const Edge& e : lg->ml.edges()) h = fold(h, e.key());
    }
  }
  return h;
}

/// The edge set T of Algorithm 2, Line 14 on the erdos_renyi graph n=2000,
/// m=10000 (uniform weights, seed 1) in its random arrival order: local
/// ratio runs over the prefix p = 1/log2(n) as rand_arr_matching does,
/// freezes, and T keeps the suffix edges it would still push, at residual
/// weight. The view spans all n vertices; 240 of them have no T edge.
inline GraphView stream_t_set() {
  api::GenSpec spec;
  spec.n = 2000;
  spec.m = 10000;
  const api::Instance inst = api::generate_instance(spec);
  const std::size_t n = inst.num_vertices();
  const double ln = std::log2(static_cast<double>(n));
  const double p = std::min(0.5, 100.0 / (ln * 100.0));
  const std::size_t prefix =
      static_cast<std::size_t>(p * static_cast<double>(inst.stream.size()));
  baselines::LocalRatio lr(n);
  for (std::size_t i = 0; i < prefix; ++i) lr.feed(inst.stream[i]);
  lr.freeze();
  std::vector<Edge> t_set;
  for (std::size_t i = prefix; i < inst.stream.size(); ++i) {
    const Edge& e = inst.stream[i];
    if (lr.feed(e)) {
      t_set.push_back({e.u, e.v, e.w - lr.potential(e.u) - lr.potential(e.v)});
    }
  }
  return GraphView(Graph(n, std::move(t_set)));
}

/// Folds the edges of a weighted and a maximum-cardinality solve of g, as
/// rand-arrival and unw-rand-arrival call Blossom. `solve(g, max_card)` is
/// blossom_max_weight or a reference with its signature.
template <typename SolveFn>
std::uint64_t blossom_checksum(const GraphView& g, SolveFn&& solve) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const bool max_card : {false, true}) {
    const Matching m = solve(g, max_card);
    for (const Edge& e : m.edges()) {
      h = fold(h, e.u);
      h = fold(h, e.v);
      h = fold(h, static_cast<std::uint64_t>(e.w));
    }
    h = fold(h, m.size());
  }
  return h;
}

/// The serve workload's first exact-hk instance: bipartite n=2000 m=8000,
/// seed 1000 (uniform weights; Hopcroft-Karp reads only the edges).
inline api::Instance serve_hk_instance() {
  api::GenSpec spec;
  spec.generator = "bipartite";
  spec.n = 2000;
  spec.m = 8000;
  spec.seed = 1000;
  return api::generate_instance(spec);
}

/// Folds the edges, size and phase count of a full Hopcroft-Karp solve.
/// `solve(g, side)` returns an exact::HopcroftKarpResult: hopcroft_karp
/// or a reference with that result.
template <typename SolveFn>
std::uint64_t hk_solve_checksum(const api::Instance& inst, SolveFn&& solve) {
  const auto r = solve(inst.graph, inst.side);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : r.matching.edges()) {
    h = fold(h, e.u);
    h = fold(h, e.v);
  }
  h = fold(h, r.matching.size());
  return fold(h, r.phases);
}

}  // namespace wmatch::bench::hot_path
