#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "api/solver.h"
#include "core/decompose.h"
#include "core/layered_graph.h"
#include "core/main_alg.h"
#include "core/matcher.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "graph/augmentation.h"
#include "hot_path.h"
#include "runtime/thread_pool.h"
#include "sweep/presets.h"
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

/// The usefulness oracle: whether `lg.lprime` holds an `lg.ml`-augmenting
/// path, by a plain alternating BFS over the whole bipartite graph. It
/// starts from every free R vertex, leaves R vertices by unmatched edges
/// and L vertices by their matched edge, and succeeds on reaching a free L
/// vertex. It reads no layer numbers, so it does not assume that such a
/// path runs from layer 0 to layer k.
bool has_augmenting_path(const LayeredGraph& lg) {
  const GraphView& g = lg.lprime;
  const Matching& ml = lg.ml;
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<Vertex> queue;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (lg.side[v] == 1 && !ml.is_matched(v)) {
      seen[v] = 1;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex r = queue[head];
    for (const Vertex l : g.neighbors(r)) {
      if (seen[l] || ml.contains(r, l)) continue;
      seen[l] = 1;
      if (!ml.is_matched(l)) return true;
      const Vertex next = ml.mate(l);
      if (!seen[next]) {
        seen[next] = 1;
        queue.push_back(next);
      }
    }
  }
  return false;
}

/// What build_layered_graph returns for a useless pair of `layers` layers.
LayeredGraph useless_graph(std::size_t layers) {
  LayeredGraph out;
  out.layers = layers;
  return out;
}

/// Reference for bucket_edges: the buckets as before the gap index, and
/// the index by brute force — every (tag_u, b, tag_v) triple in key order
/// (tags 0..umax, b 1..umax), each group the bucket-b edges whose
/// endpoints carry those tags, where a vertex's tag is a if its M edge is
/// a crossing edge of matched bucket a, 0 if it is M-free, and none
/// otherwise. The mates are those of the bucketed matched edges, and the
/// side index holds each group's (u, v) pairs in sorted order.
core::BucketedEdges reference_bucket_edges(const CrossingEdges& edges,
                                           Weight unit, int umax) {
  core::BucketedEdges out;
  out.unit = unit;
  const auto buckets = static_cast<std::size_t>(umax) + 1;
  out.matched.assign(buckets, {});
  out.unmatched.assign(buckets, {});
  std::vector<int> tag(edges.free.size(), -1);
  for (std::size_t v = 0; v < tag.size(); ++v) {
    if (edges.free[v]) tag[v] = 0;
  }
  out.mate.assign(edges.free.size(), kNoVertex);
  for (const Edge& e : edges.matched) {
    const Weight a = (e.w + unit - 1) / unit;
    if (a < 1 || a > umax) continue;
    out.matched[static_cast<std::size_t>(a)].push_back(e);
    tag[e.u] = tag[e.v] = static_cast<int>(a);
    out.mate[e.u] = e.v;
    out.mate[e.v] = e.u;
  }
  for (const Edge& e : edges.unmatched) {
    const Weight b = e.w / unit;
    if (b >= 1 && b <= umax) {
      out.unmatched[static_cast<std::size_t>(b)].push_back(e);
    }
  }
  const auto s = static_cast<std::uint64_t>(umax) + 1;
  for (int tu = 0; tu <= umax; ++tu) {
    for (int b = 1; b <= umax; ++b) {
      for (int tv = 0; tv <= umax; ++tv) {
        const std::size_t begin = out.grouped.size();
        for (const Edge& e : out.unmatched[static_cast<std::size_t>(b)]) {
          if (tag[e.u] == tu && tag[e.v] == tv) out.grouped.push_back(e);
        }
        if (out.grouped.size() == begin) continue;
        out.group_keys.push_back((static_cast<std::uint64_t>(tu) * s +
                                  static_cast<std::uint64_t>(b)) * s +
                                 static_cast<std::uint64_t>(tv));
        out.group_begin.push_back(static_cast<std::uint32_t>(begin));
      }
    }
  }
  out.group_begin.push_back(static_cast<std::uint32_t>(out.grouped.size()));
  for (std::size_t i = 0; i + 1 < out.group_begin.size(); ++i) {
    std::vector<std::pair<Vertex, Vertex>> arcs;
    for (std::uint32_t j = out.group_begin[i]; j < out.group_begin[i + 1];
         ++j) {
      arcs.emplace_back(out.grouped[j].u, out.grouped[j].v);
    }
    std::sort(arcs.begin(), arcs.end());
    for (const auto& [u, v] : arcs) out.by_u.push_back({u, v});
  }
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
/// parametrizations, with `builder` and with the reference, and compares:
/// admits, build's has_value() and the oracle on the reference graph agree,
/// and a built graph equals the reference field for field. Returns the
/// number of builds whose gap buckets held at least
/// runtime::kParallelWorkCutoff candidate edges (the large ones); `dead`
/// counts the pairs whose reference graph has Y edges but no augmenting
/// path (built before the reach test, skipped now).
std::size_t check_against_reference(core::LayeredGraphBuilder& builder,
                                    const GraphView& g, Weight w_class,
                                    const core::TauConfig& tcfg, Rng& rng,
                                    std::size_t& useful, std::size_t& dead) {
  const Matching m = greedy_matching(g);
  const std::size_t n = g.num_vertices();
  std::size_t large = 0;
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
      if (gap_work >= runtime::kParallelWorkCutoff) ++large;
      const LayeredGraph want = reference_build(buckets, m, par, tau, n);
      const bool reaches = has_augmenting_path(want);
      if (!reaches && want.num_between_edges > 0) ++dead;
      EXPECT_EQ(buckets.admits(tau.tau_a, tau.tau_b), reaches);
      const std::optional<LayeredGraph> got =
          builder.build(buckets, m, par, tau, n);
      EXPECT_EQ(got.has_value(), reaches);
      if (got) {
        ++useful;
        EXPECT_TRUE(same_layered(*got, want));
      }
      EXPECT_TRUE(same_layered(
          core::build_layered_graph(buckets, m, par, tau, n),
          reaches ? want : useless_graph(tau.num_layers())));
    }
  }
  return large;
}

TEST(LayeredGraphBuilderTest, MatchesReferenceOnRandomInstances) {
  // One builder across instances of different sizes, pairs of every
  // depth and two parametrizations each: a stale epoch stamp or a
  // mis-sized slot block would show as a field mismatch.
  core::LayeredGraphBuilder builder;
  Rng rng(21);
  std::size_t useful = 0, dead = 0;
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
    check_against_reference(builder, g, 40 + 30 * inst, tcfg, rng, useful,
                            dead);
  }
  EXPECT_GT(useful, 100u);
  EXPECT_GT(dead, 100u);
}

TEST(LayeredGraphBuilderTest, MatchesReferenceOnPoolSizedBuilds) {
  // Narrow weights (unit 1, 4 buckets of ~2500 crossing edges) put over
  // runtime::kParallelWorkCutoff candidate edges into the gap buckets of
  // every pair with two or more gaps: large builds, still on the calling
  // thread, must match the reference too.
  Rng rng(22);
  const std::size_t n = 1000;
  Graph raw = gen::erdos_renyi(n, 20000, rng);
  const GraphView g =
      freeze(gen::assign_weights(raw, gen::WeightDist::kUniform, 4, rng));
  core::TauConfig tcfg;
  tcfg.max_layers = 8;
  tcfg.max_pairs = 300;
  core::LayeredGraphBuilder builder;
  std::size_t useful = 0, dead = 0;
  Rng pass_rng(23);
  const std::size_t large =
      check_against_reference(builder, g, 8, tcfg, pass_rng, useful, dead);
  EXPECT_GT(large, 0u);
  EXPECT_GT(useful, 0u);
}

/// The builder's answer, checked field for field against the reference
/// (nullopt exactly when the reference graph has no augmenting path, and
/// exactly when admits() says no).
std::optional<LayeredGraph> checked_build(core::LayeredGraphBuilder& builder,
                                          const core::BucketedEdges& buckets,
                                          const Matching& m,
                                          const Parametrization& par,
                                          const TauPair& tau, std::size_t n) {
  const LayeredGraph want = reference_build(buckets, m, par, tau, n);
  std::optional<LayeredGraph> got = builder.build(buckets, m, par, tau, n);
  EXPECT_EQ(got.has_value(), has_augmenting_path(want));
  EXPECT_EQ(buckets.admits(tau.tau_a, tau.tau_b), got.has_value());
  if (got) {
    EXPECT_TRUE(same_layered(*got, want));
  }
  return got;
}

/// The gap-index edge cases, on one instance with unit 4 and umax 4. R
/// vertices 0..5, L vertices 6..13; M holds (1,7) w6 (bucket 2), (2,8)
/// w10 (bucket 3), (3,4) w6 between two R vertices, (5,11) w30 (out of
/// the window) and (12,13) w6 between two L vertices; 0, 6, 9 and 10 are
/// free. Every other R-L pair is an unmatched edge of weight 5 (bucket 1).
class GapIndexFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 14;
  static constexpr Weight kUnit = 4;
  static constexpr int kUmax = 4;

  GapIndexFixture() : m_(kN), par_(kN, 0) {
    Graph g(kN);
    const Edge matched[] = {
        {1, 7, 6}, {2, 8, 10}, {3, 4, 6}, {5, 11, 30}, {12, 13, 6}};
    for (const Edge& e : matched) {
      g.add_edge(e.u, e.v, e.w);
      m_.add(e);
    }
    for (Vertex r = 0; r < 6; ++r) {
      par_[r] = 1;
      for (Vertex l = 6; l < kN; ++l) {
        if (m_.mate(r) != l) g.add_edge(r, l, 5);
      }
    }
    g_ = freeze(std::move(g));
    buckets_ = core::bucket_edges(core::crossing_edges(g_, m_, par_), kUnit,
                                  kUmax);
  }

  std::optional<LayeredGraph> build_checked(const TauPair& tau) {
    return checked_build(builder_, buckets_, m_, par_, tau, kN);
  }

  /// Original ids of the vertices in layer `layer` (1-based).
  static std::vector<Vertex> layer(const LayeredGraph& lg,
                                   std::size_t layer) {
    std::vector<Vertex> out;
    for (std::size_t i = 0; i < lg.original.size(); ++i) {
      if (lg.layer_of[i] == layer) out.push_back(lg.original[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  GraphView g_;
  Matching m_;
  Parametrization par_;
  core::BucketedEdges buckets_;
  core::LayeredGraphBuilder builder_;
};

TEST_F(GapIndexFixture, EmptyMatchedBucketRejectsDespiteANonEmptyGap) {
  // Gap 0, free R -> L matched in bucket 2, has edges; matched bucket 1
  // is empty, so the pair is useless whatever its other gaps hold.
  ASSERT_FALSE(buckets_.gap(0, 1, 2).empty());
  ASSERT_TRUE(buckets_.matched[1].empty());
  EXPECT_FALSE(build_checked({{0, 2, 1}, {1, 1}}));
  EXPECT_FALSE(build_checked({{0, 2, 1, 0}, {1, 1, 1}}));
}

TEST_F(GapIndexFixture, IntermediateZeroAdmitsNoVertex) {
  // Free R -> free L edges exist (group (0, 1, 0)), but an intermediate
  // layer with threshold 0 keeps no vertex, so no path crosses it. In the
  // second pair gap 0 has edges (L' is not empty) and still no path
  // reaches the last layer.
  ASSERT_FALSE(buckets_.gap(0, 1, 0).empty());
  EXPECT_FALSE(build_checked({{0, 0, 0}, {1, 1}}));
  ASSERT_FALSE(buckets_.gap(0, 1, 2).empty());
  EXPECT_GT(reference_build(buckets_, m_, par_, {{0, 2, 0, 0}, {1, 1, 1}}, kN)
                .num_between_edges,
            0u);
  EXPECT_FALSE(build_checked({{0, 2, 0, 0}, {1, 1, 1}}));
}

TEST_F(GapIndexFixture, EndpointZeroAdmitsOnlyFreeVertices) {
  const auto lg = build_checked({{0, 2, 0}, {1, 1}});
  ASSERT_TRUE(lg);
  EXPECT_EQ(layer(*lg, 1), (std::vector<Vertex>{0}));
  EXPECT_EQ(layer(*lg, 2), (std::vector<Vertex>{1, 7}));
  EXPECT_EQ(layer(*lg, 3), (std::vector<Vertex>{6, 9, 10}));
}

TEST_F(GapIndexFixture, PositiveEndpointAdmitsOnlyItsBucketsMatchedVertices) {
  const auto first = build_checked({{3, 2, 0}, {1, 1}});
  ASSERT_TRUE(first);
  EXPECT_EQ(layer(*first, 1), (std::vector<Vertex>{2}));
  const auto last = build_checked({{0, 2, 3}, {1, 1}});
  ASSERT_TRUE(last);
  EXPECT_EQ(layer(*last, 3), (std::vector<Vertex>{8}));
}

TEST_F(GapIndexFixture, VerticesMatchedOutsideTheWindowNeverAppear) {
  // Every pair of 2-4 layers over thresholds 0..5 and 1..2: same graph as
  // the reference, and no vertex matched by a non-crossing edge (3, 4, 12,
  // 13) or an out-of-window edge (5, 11) in any layer.
  std::size_t useful = 0;
  for (std::size_t layers = 2; layers <= 4; ++layers) {
    TauPair tau;
    tau.tau_a.assign(layers, 0);
    tau.tau_b.assign(layers - 1, 1);
    for (;;) {
      if (const auto lg = build_checked(tau)) {
        ++useful;
        for (Vertex v : lg->original) {
          EXPECT_TRUE(v != 3 && v != 4 && v != 5 && v != 11 && v != 12 &&
                      v != 13)
              << "vertex " << v;
        }
      }
      // Next tau in odometer order: a over 0..5, then b over 1..2.
      std::size_t i = 0;
      for (; i < layers; ++i) {
        if (++tau.tau_a[i] <= 5) break;
        tau.tau_a[i] = 0;
      }
      if (i < layers) continue;
      std::size_t j = 0;
      for (; j + 1 < layers; ++j) {
        if (++tau.tau_b[j] <= 2) break;
        tau.tau_b[j] = 1;
      }
      if (j + 1 == layers) break;
    }
  }
  EXPECT_GT(useful, 10u);
}

TEST_F(GapIndexFixture, AdmitsMatchesBuildOnRandomPairs) {
  // Thresholds drawn from 0..kUmax + 2: empty and out-of-window buckets,
  // tau_a of 0 at intermediate and endpoint layers, tau_b of 0. Most
  // tau_b are 1, the one non-empty unmatched bucket, so some pairs build.
  Rng rng(41);
  std::size_t admitted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto layers = static_cast<std::size_t>(rng.next_int(2, 6));
    TauPair tau;
    for (std::size_t t = 0; t < layers; ++t) {
      tau.tau_a.push_back(static_cast<int>(rng.next_int(0, kUmax + 2)));
    }
    for (std::size_t t = 0; t + 1 < layers; ++t) {
      tau.tau_b.push_back(rng.next_bool(0.8)
                              ? 1
                              : static_cast<int>(rng.next_int(0, kUmax + 2)));
    }
    if (build_checked(tau)) ++admitted;
  }
  EXPECT_GT(admitted, 50u);
}

/// The reach walk's cases, on one instance with unit 4: R vertices 0, 1,
/// 2 and L vertices 3, 4, 5. M holds (4,1) w6 and (5,2) w6 (bucket 2); 0
/// and 3 are free. The unmatched edges are (0,4) w5 and (2,3) w5 (bucket
/// 1), (1,3) w9 (bucket 2) and (1,5) w13 (bucket 3). So from the free R
/// vertex 0 the only alternating walk is 0 - 4 = 1, then 1 - 3 (bucket 2)
/// or 1 - 5 = 2 - 3 (buckets 3 and 1).
class ReachFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 6;

  ReachFixture() : m_(kN), par_{1, 1, 1, 0, 0, 0} {
    Graph g(kN);
    for (const Edge& e : {Edge{4, 1, 6}, Edge{5, 2, 6}}) {
      g.add_edge(e.u, e.v, e.w);
      m_.add(e);
    }
    g.add_edge(0, 4, 5);
    g.add_edge(2, 3, 5);
    g.add_edge(1, 3, 9);
    g.add_edge(1, 5, 13);
    g_ = freeze(std::move(g));
    buckets_ =
        core::bucket_edges(core::crossing_edges(g_, m_, par_), 4, 4);
  }

  std::optional<LayeredGraph> build_checked(const TauPair& tau) {
    return checked_build(builder_, buckets_, m_, par_, tau, kN);
  }
  /// Whether the layered graph has a Y edge: the usefulness rule before
  /// the reach walk ("some gap group is non-empty").
  bool has_y_edge(const TauPair& tau) {
    return reference_build(buckets_, m_, par_, tau, kN).num_between_edges >
           0;
  }

  GraphView g_;
  Matching m_;
  Parametrization par_;
  core::BucketedEdges buckets_;
  core::LayeredGraphBuilder builder_;
};

TEST_F(ReachFixture, PathsThroughTheMateReach) {
  EXPECT_TRUE(build_checked({{0, 2, 0}, {1, 2}}));        // 0-4=1-3
  EXPECT_TRUE(build_checked({{0, 2, 2, 0}, {1, 3, 1}}));  // 0-4=1-5=2-3
}

TEST_F(ReachFixture, NonEmptyGroupThatNoLayerZeroVertexReaches) {
  // Gap 1's group (2, 1, 0) holds 2 -> 3, but gap 0's group (0, 2, 2) is
  // empty, so no walk from layer 0 gets there.
  const TauPair tau{{0, 2, 0}, {2, 1}};
  ASSERT_TRUE(buckets_.gap(0, 2, 2).empty());
  ASSERT_FALSE(buckets_.gap(2, 1, 0).empty());
  EXPECT_TRUE(has_y_edge(tau));
  EXPECT_FALSE(build_checked(tau));
}

TEST_F(ReachFixture, DeadEndAtAnIntermediateLayer) {
  // 0 - 4 = 1 reaches layer 1, but 1 has no bucket-1 edge to a free L
  // vertex; group (2, 1, 0)'s edge 2 -> 3 leaves a vertex no walk reaches.
  const TauPair shallow{{0, 2, 0}, {1, 1}};
  EXPECT_TRUE(has_y_edge(shallow));
  EXPECT_FALSE(build_checked(shallow));
  // One layer deeper: 0 - 4 = 1 - 5 = 2 reaches layer 2, where 2 has no
  // bucket-2 edge; group (2, 2, 0)'s edge 1 -> 3 starts at a vertex that
  // is in layer 1, not layer 2.
  const TauPair deep{{0, 2, 2, 0}, {1, 3, 2}};
  EXPECT_TRUE(has_y_edge(deep));
  EXPECT_FALSE(build_checked(deep));
}

TEST(PairsForValuesIf, EqualsPairsForValuesFilteredByBuild) {
  // Random graphs, class weights and parametrizations, with caps that
  // stop in every priority and depth limits 2..8: the filtered list is
  // pairs_for_values' list without the pairs whose build is nullopt, in
  // the same order, and both generators end in the same state.
  Rng rng(51);
  std::size_t cases = 0, dropped = 0, kept = 0;
  for (int inst = 0; inst < 6; ++inst) {
    const std::size_t n = 30 + 25 * static_cast<std::size_t>(inst);
    Graph raw = gen::erdos_renyi(n, 4 * n, rng);
    const GraphView g = freeze(gen::assign_weights(
        raw, inst % 2 ? gen::WeightDist::kExponential
                      : gen::WeightDist::kUniform,
        300, rng));
    const Matching m = greedy_matching(g);
    core::LayeredGraphBuilder builder;
    for (const Weight w_class : {Weight{40}, Weight{150}, Weight{600}}) {
      for (const std::size_t cap : {std::size_t{7}, std::size_t{60},
                                    std::size_t{400}, std::size_t{4000}}) {
        core::TauConfig tcfg;
        tcfg.max_layers = 2 + (cap + static_cast<std::size_t>(inst)) % 7;
        tcfg.max_pairs = cap;
        const Parametrization par = core::random_parametrization(n, rng);
        const core::BucketedEdges buckets = core::bucket_edges(
            core::crossing_edges(g, m, par), core::quantum(w_class, tcfg),
            core::max_units(tcfg));
        const std::uint64_t seed = rng.next();
        Rng all_rng(seed), if_rng(seed);
        std::vector<TauPair> all = core::pairs_for_values(
            buckets.matched_values(), buckets.unmatched_values(), tcfg,
            all_rng);
        const std::size_t distinct = all.size();
        std::vector<TauPair> want;
        for (TauPair& tau : all) {
          if (builder.build(buckets, m, par, tau, n)) {
            want.push_back(std::move(tau));
          } else {
            ++dropped;
          }
        }
        std::size_t asked = 0;
        const std::vector<TauPair> got = core::pairs_for_values_if(
            buckets.matched_values(), buckets.unmatched_values(), tcfg,
            if_rng, [&](std::span<const int> a, std::span<const int> b) {
              ++asked;
              return buckets.admits(a, b);
            });
        ASSERT_EQ(got, want) << "instance " << inst << " class " << w_class
                             << " max_pairs " << cap;
        EXPECT_EQ(asked, distinct);  // once per distinct good pair
        ASSERT_EQ(if_rng.next(), all_rng.next());
        kept += got.size();
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 6u * 3u * 4u);
  EXPECT_GT(kept, 100u);
  EXPECT_GT(dropped, 100u);
}

TEST(BucketEdges, GapIndexMatchesBruteForce) {
  // Random instances under greedy matchings (free vertices, matched
  // buckets, out-of-window matched edges) and the ci instance's classes.
  Rng rng(31);
  for (int inst = 0; inst < 6; ++inst) {
    const std::size_t n = 30 + 40 * static_cast<std::size_t>(inst);
    Graph raw = gen::erdos_renyi(n, 4 * n, rng);
    const GraphView g = freeze(
        gen::assign_weights(raw, gen::WeightDist::kUniform, 100, rng));
    const Matching m = greedy_matching(g);
    const CrossingEdges ce =
        core::crossing_edges(g, m, core::random_parametrization(n, rng));
    for (const auto& [unit, umax] :
         {std::pair<Weight, int>{5, 16}, {12, 4}, {1, 200}}) {
      const core::BucketedEdges got = core::bucket_edges(ce, unit, umax);
      const core::BucketedEdges want = reference_bucket_edges(ce, unit, umax);
      EXPECT_EQ(got.matched, want.matched);
      EXPECT_EQ(got.unmatched, want.unmatched);
      EXPECT_EQ(got.group_keys, want.group_keys);
      EXPECT_EQ(got.group_begin, want.group_begin);
      EXPECT_EQ(got.grouped, want.grouped);
      EXPECT_EQ(got.by_u, want.by_u);
      EXPECT_EQ(got.mate, want.mate);
    }
  }
  const bench::hot_path::Inputs in = bench::hot_path::ci_bipartite_inputs();
  EXPECT_EQ(bench::hot_path::buckets_checksum(in, core::bucket_edges),
            bench::hot_path::buckets_checksum(in, reference_bucket_edges));
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
        if (!has_augmenting_path(lg)) return std::nullopt;
        return lg;
      });
  EXPECT_GT(useful, 0u);
  EXPECT_EQ(got, want);
}

TEST(PairsForValuesIf, HotPathKernelChecksumMatchesReference) {
  // bench_micro_kernels' tau-useful kernel: the library's filtered pairs
  // hash like pairs_for_values' pairs (pinned to test_tau's reference)
  // whose reference build holds an augmenting path, generator states
  // included.
  using bench::hot_path::ClassInput;
  const bench::hot_path::Inputs in = bench::hot_path::ci_bipartite_inputs();
  const std::size_t n = in.g.num_vertices();
  const std::uint64_t want = bench::hot_path::class_pairs_checksum(
      in, [&](const ClassInput& c, Rng& rng) {
        std::vector<TauPair> useful;
        for (TauPair& tau :
             core::pairs_for_values(c.a_vals, c.b_vals, in.tau, rng)) {
          if (has_augmenting_path(
                  reference_build(c.buckets, in.m, c.par, tau, n))) {
            useful.push_back(std::move(tau));
          }
        }
        return useful;
      });
  EXPECT_EQ(bench::hot_path::tau_useful_checksum(in), want);
  EXPECT_NE(bench::hot_path::tau_useful_checksum(in),
            bench::hot_path::tau_pairs_checksum(in, core::pairs_for_values));
}

/// find_class_augmentations under the usefulness rule before the reach
/// test: every pairs_for_values pair whose layered graph has a Y edge is
/// built (by reference_build) and solved. Otherwise the library's class
/// step: same draws, same augmentation extraction, same selection.
/// `calls` counts the black-box calls.
std::vector<Augmentation> old_rule_class(const GraphView& g,
                                         const Matching& m, Weight w_class,
                                         const core::TauConfig& tau_cfg,
                                         double delta,
                                         core::UnweightedMatcher& matcher,
                                         Rng& rng, std::size_t& calls) {
  const std::size_t n = g.num_vertices();
  const Parametrization par = core::random_parametrization(n, rng);
  const CrossingEdges crossing = core::crossing_edges(g, m, par);
  if (crossing.unmatched.empty()) return {};
  const core::BucketedEdges buckets = core::bucket_edges(
      crossing, core::quantum(w_class, tau_cfg), core::max_units(tau_cfg));
  std::vector<Augmentation> candidates;
  for (const TauPair& pair :
       core::pairs_for_values(buckets.matched_values(),
                              buckets.unmatched_values(), tau_cfg, rng)) {
    const LayeredGraph lg = reference_build(buckets, m, par, pair, n);
    if (lg.num_between_edges == 0) continue;
    ++calls;
    const Matching mprime = matcher.solve(lg.lprime, lg.side, delta);
    for (Augmentation& comp :
         symmetric_difference_components(mprime, lg.ml)) {
      if (comp.is_cycle) continue;
      std::size_t in_mprime = 0;
      for (const Edge& e : comp.edges) in_mprime += mprime.contains(e);
      if (2 * in_mprime <= comp.edges.size()) continue;
      std::vector<Edge> walk;
      for (const Edge& e : comp.edges) {
        walk.push_back({lg.original[e.u], lg.original[e.v], e.w});
      }
      Augmentation best;
      Weight best_gain = 0;
      for (Augmentation& piece : core::decompose_walk(walk)) {
        if (!piece.is_valid_alternating(m)) continue;
        const Weight gain = piece.gain(m);
        if (gain > best_gain) {
          best_gain = gain;
          best = std::move(piece);
        }
      }
      if (best_gain > 0) candidates.push_back(std::move(best));
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&m](const Augmentation& x, const Augmentation& y) {
                     return x.gain(m) > y.gain(m);
                   });
  std::vector<Augmentation> chosen;
  for (std::size_t i : select_disjoint(candidates, m)) {
    chosen.push_back(std::move(candidates[i]));
  }
  return chosen;
}

/// maximum_weight_matching's round loop over old_rule_class, serial, with
/// the default ReductionConfig at `epsilon` and Rng(seed), as the
/// reduction-hk / reduction-exact adapters call it.
Matching old_rule_reduction(const GraphView& g, double epsilon,
                            std::uint64_t seed,
                            core::UnweightedMatcher& matcher,
                            std::size_t& calls) {
  core::ReductionConfig cfg;
  cfg.epsilon = epsilon;
  Weight min_w = g.max_weight();
  for (const Edge& e : g.edges()) min_w = std::min(min_w, e.w);
  std::vector<Weight> ladder;
  for (double w = static_cast<double>(g.max_weight()) *
                  static_cast<double>(cfg.tau.max_layers + 1);
       w >= std::max(1.0, static_cast<double>(min_w)) &&
       ladder.size() < cfg.max_classes;
       w /= cfg.class_base) {
    ladder.push_back(static_cast<Weight>(std::llround(w)));
  }
  Rng rng(seed);
  Matching m(g.num_vertices());
  const auto iters = static_cast<std::size_t>(std::ceil(8.0 / epsilon));
  std::size_t stalls = 0;
  for (std::size_t it = 0; it < iters && stalls < cfg.stall_patience; ++it) {
    const std::uint64_t round_base = rng.next();
    std::vector<std::vector<Augmentation>> found;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      Rng class_rng(runtime::task_seed(round_base, 2 * i));
      found.push_back(old_rule_class(g, m, ladder[i], cfg.tau,
                                     cfg.effective_delta(), matcher,
                                     class_rng, calls));
    }
    std::vector<char> used(g.num_vertices(), 0);
    Weight gain = 0;
    for (const std::vector<Augmentation>& augs : found) {
      for (const Augmentation& aug : augs) {
        const std::vector<Vertex> touched = aug.touched_vertices(m);
        if (std::any_of(touched.begin(), touched.end(),
                        [&](Vertex v) { return used[v] != 0; }) ||
            !aug.is_valid_alternating(m) || aug.gain(m) <= 0) {
          continue;
        }
        for (Vertex v : touched) used[v] = 1;
        gain += aug.apply(m);
      }
    }
    stalls = gain == 0 ? stalls + 1 : 0;
  }
  return m;
}

TEST(ReachTest, ReductionMatchingsEqualBuildingEveryOldRulePair) {
  // The ci preset's instances (bipartite and erdos_renyi n=200, the three
  // hard-* families) at its epsilon and seed: reduction-hk and
  // reduction-exact return, at 1 and 4 threads, exactly the matching of a
  // reduction that builds and solves every pair with a Y edge. The pairs
  // the reach test skips cannot augment, so skipping them changes nothing
  // but the call count.
  const sweep::SweepSpec ci = sweep::preset("ci");
  const double epsilon = ci.epsilons.front();
  const std::uint64_t seed = ci.seeds.front();
  for (api::GenSpec gen : ci.instances) {
    gen.seed = seed;
    const api::Instance inst = api::generate_instance(gen);
    for (const std::string algo : {"reduction-hk", "reduction-exact"}) {
      std::size_t old_calls = 0;
      core::HkStreamingMatcher hk;
      core::ExactMatcher exact;
      core::UnweightedMatcher& matcher =
          algo == "reduction-hk" ? static_cast<core::UnweightedMatcher&>(hk)
                                 : exact;
      const Matching want =
          old_rule_reduction(inst.graph, epsilon, seed, matcher, old_calls);
      for (const std::size_t threads : {1, 4}) {
        api::SolverSpec spec;
        spec.epsilon = epsilon;
        spec.seed = seed;
        spec.runtime.num_threads = threads;
        const api::SolveResult got = api::Solver(algo).solve(inst, spec);
        EXPECT_EQ(got.matching, want)
            << algo << " on " << gen.generator << " at " << threads
            << " threads";
        EXPECT_LT(got.cost.bb_invocations, old_calls)
            << algo << " on " << gen.generator;
      }
    }
  }
}

}  // namespace
}  // namespace wmatch
