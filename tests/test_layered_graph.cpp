#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/layered_graph.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "hot_path.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace wmatch {
namespace {

using core::CrossingEdges;
using core::LayeredGraph;
using core::Parametrization;
using core::TauPair;

LayeredGraph build(const CrossingEdges& ce, const Matching& m,
                   const Parametrization& par, const TauPair& tau,
                   Weight unit, std::size_t n, int umax = 20) {
  return core::build_layered_graph(core::bucket_edges(ce, unit, umax), m, par,
                                   tau, n);
}

TEST(Parametrize, SplitsRoughlyInHalf) {
  Rng rng(1);
  Parametrization par = core::random_parametrization(1000, rng);
  std::size_t left = 0;
  for (char s : par) {
    if (s == 0) ++left;
  }
  EXPECT_GT(left, 400u);
  EXPECT_LT(left, 600u);
}

TEST(CrossingEdgesTest, OrientationInvariants) {
  Graph g(4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 6);
  g.add_edge(2, 3, 7);
  g.add_edge(0, 3, 8);
  Matching m(4);
  m.add(0, 1, 5);
  Parametrization par{0, 1, 0, 1};  // L R L R
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  // Matched crossing: (0,1). Unmatched crossing: (1,2), (2,3), (0,3).
  ASSERT_EQ(ce.matched.size(), 1u);
  ASSERT_EQ(ce.unmatched.size(), 3u);
  EXPECT_EQ(par[ce.matched[0].u], 0);    // L first
  for (const Edge& e : ce.unmatched) {
    EXPECT_EQ(par[e.u], 1);  // R first (direction of Y edges)
    EXPECT_EQ(par[e.v], 0);
  }
}

TEST(CrossingEdgesTest, SameSideEdgesDropped) {
  Graph g(4);
  g.add_edge(0, 2, 5);
  Matching m(4);
  Parametrization par{0, 1, 0, 1};
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  EXPECT_TRUE(ce.matched.empty());
  EXPECT_TRUE(ce.unmatched.empty());
}

// A canonical 3-augmentation instance: path a(0) - u(1) = v(2) - b(3) where
// (1,2) is matched weight 10, wings weight 9 each. With unit 5:
// tau_a = (0, 2, 0) (middle matched edge <= 10), tau_b = (1, 1) (wings >= 5).
class LayeredFixture : public ::testing::Test {
 protected:
  LayeredFixture() : g_(4), m_(4) {
    g_.add_edge(0, 1, 9);
    g_.add_edge(1, 2, 10);
    g_.add_edge(2, 3, 9);
    m_.add(1, 2, 10);
    // 1 must be R (Y edges leave R), 2 must be ... path 0->1->2->3 across
    // layers: layer1 vertex 0 free (R), layer2 edge (1,2), layer3 vertex 3
    // free (L). Y1: (0 in R at L1) -> (1 or 2 in L at L2). So one of {1,2}
    // is L. Choose 1 = L? But Y from layer2 to layer3 leaves an R vertex of
    // layer 2. So 2 = R, 1 = L, 0 = R, 3 = L.
    par_ = {1, 0, 1, 0};
  }
  Graph g_;
  Matching m_;
  Parametrization par_;
};

TEST_F(LayeredFixture, CapturesPlantedThreeAugmentation) {
  CrossingEdges ce = core::crossing_edges(freeze(g_), m_, par_);
  TauPair tau{{0, 2, 0}, {1, 1}};
  LayeredGraph lg = build(ce, m_, par_, tau, 5, 4);
  EXPECT_EQ(lg.num_between_edges, 2u);
  // L' has: Y (0@1 -> 1@2), X (1,2)@2, Y (2@2 -> 3@3).
  EXPECT_EQ(lg.lprime.num_edges(), 3u);
  EXPECT_EQ(lg.ml.size(), 1u);
  // Bipartite with original sides.
  for (const Edge& e : lg.lprime.edges()) {
    EXPECT_NE(lg.side[e.u], lg.side[e.v]);
  }
}

TEST_F(LayeredFixture, ThresholdsFilterHeavyMatchedEdge) {
  CrossingEdges ce = core::crossing_edges(freeze(g_), m_, par_);
  // tau_a middle = 1 -> admits only w in (0,5]; the matched edge (w=10)
  // fails, so the intermediate layer is empty and no Y edge survives.
  TauPair tau{{0, 1, 0}, {1, 1}};
  LayeredGraph lg = build(ce, m_, par_, tau, 5, 4);
  EXPECT_EQ(lg.num_between_edges, 0u);
}

TEST_F(LayeredFixture, UnmatchedBandIsHalfOpen) {
  CrossingEdges ce = core::crossing_edges(freeze(g_), m_, par_);
  // b = 2 admits w in [10, 15); wings w=9 fail.
  TauPair tau{{0, 2, 0}, {2, 2}};
  LayeredGraph lg = build(ce, m_, par_, tau, 5, 4);
  EXPECT_EQ(lg.num_between_edges, 0u);
}

TEST_F(LayeredFixture, EndpointThresholdZeroRequiresFreeVertex) {
  // Make endpoint 0 matched (to a new vertex 4 via crossing edge) and keep
  // tau_a[0] = 0: vertex 0 must be filtered out of layer 1.
  Graph g(5);
  g.add_edge(0, 1, 9);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 3, 9);
  g.add_edge(0, 4, 6);
  Matching m(5);
  m.add(1, 2, 10);
  m.add(0, 4, 6);
  Parametrization par{1, 0, 1, 0, 0};
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  TauPair tau{{0, 2, 0}, {1, 1}};
  LayeredGraph lg = build(ce, m, par, tau, 5, 5);
  // Y edge from 0@1 must be gone; only Y (2@2 -> 3@3) survives... but then
  // layer-2 vertex 1 keeps its X edge, which has no left support.
  for (const Edge& e : lg.lprime.edges()) {
    bool from_zero = lg.original[e.u] == 0 || lg.original[e.v] == 0;
    EXPECT_FALSE(from_zero && lg.layer_of[e.u] == 1);
  }
}

TEST_F(LayeredFixture, MatchedEndpointAdmittedWithPositiveTau) {
  // Same graph as above but tau_a[0] = 2 admits the matched edge (0,4)
  // (w=6 in (5,10]): the path may start at 0 and drop (0,4) too.
  Graph g(5);
  g.add_edge(0, 1, 9);
  g.add_edge(1, 2, 10);
  g.add_edge(2, 3, 9);
  g.add_edge(0, 4, 6);
  Matching m(5);
  m.add(1, 2, 10);
  m.add(0, 4, 6);
  Parametrization par{1, 0, 1, 0, 0};
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  // Unit 4: a1=2 admits (4,8] -> w(0,4)=6 passes; a2=3 admits (8,12] ->
  // w(1,2)=10 passes; b=2 admits [8,12) -> wings w=9 pass.
  TauPair tau{{2, 3, 0}, {2, 2}};
  LayeredGraph lg = build(ce, m, par, tau, 4, 5);
  EXPECT_GE(lg.num_between_edges, 1u);
  bool zero_in_layer1 = false;
  for (std::size_t i = 0; i < lg.original.size(); ++i) {
    if (lg.original[i] == 0 && lg.layer_of[i] == 1) zero_in_layer1 = true;
  }
  EXPECT_TRUE(zero_in_layer1);
}

TEST(LayeredGraphRandom, StructuralInvariants) {
  Rng rng(9);
  Graph g = gen::erdos_renyi(60, 300, rng);
  g = gen::assign_weights(g, gen::WeightDist::kUniform, 100, rng);
  Matching m(60);
  for (const Edge& e : g.edges()) {
    if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.add(e);
  }
  Parametrization par = core::random_parametrization(60, rng);
  CrossingEdges ce = core::crossing_edges(freeze(g), m, par);
  core::TauConfig tcfg;
  auto pairs = core::generate_good_pairs(tcfg, rng);
  std::size_t checked = 0;
  for (const auto& tau : pairs) {
    if (checked > 60) break;
    LayeredGraph lg = build(ce, m, par, tau, core::quantum(80, tcfg), 60,
                            core::max_units(tcfg));
    if (lg.num_between_edges == 0) continue;
    ++checked;
    // (1) bipartite w.r.t. recorded sides;
    // (2) X edges stay within a layer, Y edges advance exactly one layer
    //     from R to L;
    // (3) ML' covers every X edge.
    std::size_t x_edges = 0;
    for (const Edge& e : lg.lprime.edges()) {
      EXPECT_NE(lg.side[e.u], lg.side[e.v]);
      auto lu = lg.layer_of[e.u], lv = lg.layer_of[e.v];
      if (lu == lv) {
        ++x_edges;
        EXPECT_TRUE(lg.ml.contains(e.u, e.v));
        EXPECT_GT(lu, 1);        // not first layer
        EXPECT_LT(lu, lg.layers);  // not last layer either
      } else {
        EXPECT_EQ(std::abs(int(lu) - int(lv)), 1);
        const auto& [r, l] = lu < lv ? std::pair(e.u, e.v) : std::pair(e.v, e.u);
        EXPECT_EQ(lg.side[r], 1);  // leaves an R vertex
        EXPECT_EQ(lg.side[l], 0);  // enters an L vertex
      }
    }
    EXPECT_EQ(x_edges, lg.ml.size());
  }
  EXPECT_GT(checked, 0u);
}

/// Reference for LayeredGraphBuilder: the original per-build hash-set /
/// hash-map construction, run inline (thread count never changes it).
LayeredGraph reference_build(const core::BucketedEdges& edges,
                             const Matching& m, const Parametrization& par,
                             const TauPair& tau, std::size_t n) {
  const std::size_t layers = tau.num_layers();
  const std::size_t k = layers - 1;
  const int umax = static_cast<int>(edges.matched.size()) - 1;
  LayeredGraph out;
  out.layers = layers;
  for (std::size_t t = 0; t < layers; ++t) {
    int a = tau.tau_a[t];
    if (a > umax) return out;
    if (a > 0 && edges.matched[static_cast<std::size_t>(a)].empty()) {
      return out;
    }
  }
  for (int b : tau.tau_b) {
    if (b > umax || edges.unmatched[static_cast<std::size_t>(b)].empty()) {
      return out;
    }
  }
  std::unordered_set<std::uint64_t> x_present;
  for (std::size_t t = 0; t < layers; ++t) {
    int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      x_present.insert(static_cast<std::uint64_t>(t) * n + e.u);
      x_present.insert(static_cast<std::uint64_t>(t) * n + e.v);
    }
  }
  auto present = [&](std::size_t t, Vertex v) -> bool {
    if (x_present.count(static_cast<std::uint64_t>(t) * n + v)) return true;
    if (t == 0) {
      return par[v] == 1 && !m.is_matched(v) && tau.tau_a[0] == 0;
    }
    if (t == k) {
      return par[v] == 0 && !m.is_matched(v) && tau.tau_a[k] == 0;
    }
    return false;
  };
  struct RawEdge {
    std::size_t tu, tv;
    Vertex u, v;
    Weight w;
    bool between;
  };
  std::vector<RawEdge> raw;
  for (std::size_t t = 1; t + 1 < layers; ++t) {
    int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      raw.push_back({t, t, e.u, e.v, e.w, false});
    }
  }
  std::size_t between = 0;
  for (std::size_t t = 0; t < k; ++t) {
    int b = tau.tau_b[t];
    for (const Edge& e : edges.unmatched[static_cast<std::size_t>(b)]) {
      if (!present(t, e.u) || !present(t + 1, e.v)) continue;
      raw.push_back({t, t + 1, e.u, e.v, e.w, true});
      ++between;
    }
  }
  if (between == 0) return out;
  out.num_between_edges = between;
  std::unordered_map<std::uint64_t, std::uint32_t> id;
  auto intern = [&](std::size_t t, Vertex v) {
    auto [it, inserted] = id.try_emplace(
        static_cast<std::uint64_t>(t) * n + v,
        static_cast<std::uint32_t>(out.original.size()));
    if (inserted) {
      out.original.push_back(v);
      out.layer_of.push_back(static_cast<std::uint16_t>(t + 1));
      out.side.push_back(par[v]);
    }
  };
  for (const RawEdge& e : raw) {
    intern(e.tu, e.u);
    intern(e.tv, e.v);
  }
  Graph lp(out.original.size());
  Matching ml(out.original.size());
  for (const RawEdge& e : raw) {
    std::uint32_t cu = id[static_cast<std::uint64_t>(e.tu) * n + e.u];
    std::uint32_t cv = id[static_cast<std::uint64_t>(e.tv) * n + e.v];
    lp.add_edge(cu, cv, e.w);
    if (!e.between) ml.add(cu, cv, e.w);
  }
  out.lprime = GraphView(std::move(lp));
  out.ml = std::move(ml);
  return out;
}

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Every LayeredGraph field, the frozen CSR slot arrays included.
::testing::AssertionResult same_layered(const LayeredGraph& got,
                                        const LayeredGraph& want) {
  if (got.layers != want.layers) {
    return ::testing::AssertionFailure() << "layers differ";
  }
  if (got.num_between_edges != want.num_between_edges) {
    return ::testing::AssertionFailure()
           << "num_between_edges " << got.num_between_edges << " vs "
           << want.num_between_edges;
  }
  if (got.original != want.original) {
    return ::testing::AssertionFailure() << "original differs";
  }
  if (got.layer_of != want.layer_of) {
    return ::testing::AssertionFailure() << "layer_of differs";
  }
  if (got.side != want.side) {
    return ::testing::AssertionFailure() << "side differs";
  }
  if (!(got.ml == want.ml)) {
    return ::testing::AssertionFailure() << "ml differs";
  }
  const GraphView& a = got.lprime;
  const GraphView& b = want.lprime;
  if (a.num_vertices() != b.num_vertices() ||
      !same_span(a.edges(), b.edges()) ||
      !same_span(a.offsets(), b.offsets()) ||
      !same_span(a.neighbor_slots(), b.neighbor_slots()) ||
      !same_span(a.edge_id_slots(), b.edge_id_slots()) ||
      !same_span(a.weight_slots(), b.weight_slots())) {
    return ::testing::AssertionFailure() << "lprime differs";
  }
  return ::testing::AssertionSuccess();
}

/// A greedy maximal matching (insertion order): leaves plenty of
/// unmatched crossing edges and free endpoints.
Matching greedy_matching(const GraphView& g) {
  Matching m(g.num_vertices());
  for (const Edge& e : g.edges()) {
    if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.add(e);
  }
  return m;
}

/// Builds every pair pairs_for_values yields for `g` under two
/// parametrizations, with `builder` and with the reference, and compares.
/// Returns the number of builds whose gaps held at least
/// runtime::kParallelWorkCutoff candidate edges (the pool-filtered ones).
std::size_t check_against_reference(core::LayeredGraphBuilder& builder,
                                    const GraphView& g, Weight w_class,
                                    const core::TauConfig& tcfg,
                                    std::size_t threads, Rng& rng,
                                    std::size_t& useful) {
  const Matching m = greedy_matching(g);
  const std::size_t n = g.num_vertices();
  const runtime::RuntimeConfig rt{threads};
  std::size_t pool_sized = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const Parametrization par = core::random_parametrization(n, rng);
    const core::BucketedEdges buckets =
        core::bucket_edges(core::crossing_edges(g, m, par),
                           core::quantum(w_class, tcfg), core::max_units(tcfg));
    const auto pairs = core::pairs_for_values(
        buckets.matched_values(), buckets.unmatched_values(), tcfg, rng);
    EXPECT_FALSE(pairs.empty());
    for (const TauPair& tau : pairs) {
      std::size_t gap_work = 0;
      for (int b : tau.tau_b) {
        gap_work += buckets.unmatched[static_cast<std::size_t>(b)].size();
      }
      if (gap_work >= runtime::kParallelWorkCutoff) ++pool_sized;
      const LayeredGraph want = reference_build(buckets, m, par, tau, n);
      const std::optional<LayeredGraph> got =
          builder.build(buckets, m, par, tau, n, rt);
      EXPECT_EQ(got.has_value(), want.num_between_edges > 0);
      if (got) {
        ++useful;
        EXPECT_TRUE(same_layered(*got, want));
      }
      EXPECT_TRUE(same_layered(
          core::build_layered_graph(buckets, m, par, tau, n, rt), want));
    }
  }
  return pool_sized;
}

TEST(LayeredGraphBuilderTest, MatchesReferenceOnRandomInstances) {
  // One builder across instances of different sizes, pairs of every
  // depth and two parametrizations each: a stale epoch stamp or a
  // mis-sized slot block would show as a field mismatch.
  core::LayeredGraphBuilder builder;
  Rng rng(21);
  std::size_t useful = 0;
  for (int inst = 0; inst < 6; ++inst) {
    const std::size_t n = 40 + 30 * static_cast<std::size_t>(inst);
    Graph raw = gen::erdos_renyi(n, 5 * n, rng);
    const GraphView g = freeze(gen::assign_weights(
        raw, inst % 2 ? gen::WeightDist::kExponential
                      : gen::WeightDist::kUniform,
        200, rng));
    core::TauConfig tcfg;
    tcfg.max_layers = 2 + static_cast<std::size_t>(inst) % 7;
    tcfg.max_pairs = 1500;
    check_against_reference(builder, g, 40 + 30 * inst, tcfg, 1, rng,
                            useful);
  }
  EXPECT_GT(useful, 100u);
}

TEST(LayeredGraphBuilderTest, MatchesReferenceOnPoolSizedBuilds) {
  // Narrow weights (unit 1, 4 buckets of ~2500 crossing edges) put over
  // 4096 candidate edges into the gaps of every pair with two or more
  // gaps, so those builds filter on the thread pool; the output must not
  // depend on the thread count.
  Rng rng(22);
  const std::size_t n = 1000;
  Graph raw = gen::erdos_renyi(n, 20000, rng);
  const GraphView g =
      freeze(gen::assign_weights(raw, gen::WeightDist::kUniform, 4, rng));
  core::TauConfig tcfg;
  tcfg.max_layers = 8;
  tcfg.max_pairs = 300;
  core::LayeredGraphBuilder builder;
  for (std::size_t threads : {1, 4}) {
    std::size_t useful = 0;
    Rng pass_rng(23);
    const std::size_t pool_sized = check_against_reference(
        builder, g, 8, tcfg, threads, pass_rng, useful);
    EXPECT_GT(pool_sized, 0u) << "threads " << threads;
    EXPECT_GT(useful, 0u) << "threads " << threads;
  }
}

TEST(LayeredGraphBuilderTest, HotPathKernelChecksumMatchesReference) {
  // bench_micro_kernels' layered-build kernel: same checksum as the
  // reference over every pair of the ci bipartite instance's classes.
  using bench::hot_path::ClassInput;
  const bench::hot_path::Inputs in = bench::hot_path::ci_bipartite_inputs();
  const std::size_t n = in.g.num_vertices();
  core::LayeredGraphBuilder builder;
  std::size_t useful = 0;
  const std::uint64_t got = bench::hot_path::layered_build_checksum(
      in, [&](const ClassInput& c, const TauPair& tau) {
        std::optional<LayeredGraph> lg =
            builder.build(c.buckets, in.m, c.par, tau, n);
        if (lg) ++useful;
        return lg;
      });
  const std::uint64_t want = bench::hot_path::layered_build_checksum(
      in, [&](const ClassInput& c,
              const TauPair& tau) -> std::optional<LayeredGraph> {
        LayeredGraph lg = reference_build(c.buckets, in.m, c.par, tau, n);
        if (lg.num_between_edges == 0) return std::nullopt;
        return lg;
      });
  EXPECT_GT(useful, 0u);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace wmatch
