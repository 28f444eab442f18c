// GraphView construction edge cases, CSR invariants, and the
// Hopcroft-Karp layering over the frozen view.
//
// The CSR fill order is a documented contract (graph_view.h): slot order
// replicates the old lazy adjacency build bit for bit, so these tests pin
// it down — per-vertex incident edge ids ascending, slot-parallel arrays
// consistent with the edge list — and then check that the word-parallel
// BFS layering writes the dist labels of a plain serial BFS, and that
// full solves agree, on the planted hard families at several thread
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "gen/hard_instances.h"
#include "graph/graph_view.h"
#include "runtime/arena.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace wmatch {
namespace {

constexpr std::uint32_t kUnreached = 0xffffffffu;

TEST(GraphView, DefaultViewIsEmpty) {
  GraphView v;
  EXPECT_EQ(v.num_vertices(), 0u);
  EXPECT_EQ(v.num_edges(), 0u);
  ASSERT_EQ(v.offsets().size(), 1u);
  EXPECT_EQ(v.offsets()[0], 0u);
  EXPECT_EQ(v.total_weight(), 0);
  EXPECT_EQ(v.max_weight(), 0);
}

TEST(GraphView, IsolatedVerticesHaveEmptyRanges) {
  Graph g(5);
  g.add_edge(1, 3, 7);
  GraphView v = freeze(g);
  ASSERT_EQ(v.num_vertices(), 5u);
  for (Vertex u : {0u, 2u, 4u}) {
    EXPECT_EQ(v.degree(u), 0u) << u;
    EXPECT_TRUE(v.incident(u).empty()) << u;
    EXPECT_TRUE(v.neighbors(u).empty()) << u;
    EXPECT_TRUE(v.incident_weights(u).empty()) << u;
  }
  ASSERT_EQ(v.degree(1), 1u);
  EXPECT_EQ(v.incident(1)[0], 0u);
  EXPECT_EQ(v.neighbors(1)[0], 3u);
  EXPECT_EQ(v.incident_weights(1)[0], 7);
  EXPECT_EQ(v.total_weight(), 7);
  EXPECT_EQ(v.max_weight(), 7);
}

TEST(GraphView, SingleEdgeSlotArrays) {
  Graph g(2);
  g.add_edge(0, 1, 5);
  GraphView v = freeze(g);
  ASSERT_EQ(v.offsets().size(), 3u);
  EXPECT_EQ(v.offsets()[0], 0u);
  EXPECT_EQ(v.offsets()[1], 1u);
  EXPECT_EQ(v.offsets()[2], 2u);
  // Slot 0 is u's side of edge 0, slot 1 is v's side: each endpoint sees
  // the other as its neighbor, the same edge id, the same weight.
  ASSERT_EQ(v.neighbor_slots().size(), 2u);
  EXPECT_EQ(v.neighbor_slots()[0], 1u);
  EXPECT_EQ(v.neighbor_slots()[1], 0u);
  EXPECT_EQ(v.edge_id_slots()[0], 0u);
  EXPECT_EQ(v.edge_id_slots()[1], 0u);
  EXPECT_EQ(v.weight_slots()[0], 5);
  EXPECT_EQ(v.weight_slots()[1], 5);
}

TEST(GraphView, MaxDegreeStar) {
  // A star crossing the 64-vertex bitset-word boundary: center degree 64.
  const std::size_t leaves = 64;
  Graph g(leaves + 1);
  for (std::size_t i = 0; i < leaves; ++i) {
    g.add_edge(0, static_cast<Vertex>(i + 1), static_cast<Weight>(i + 1));
  }
  GraphView v = freeze(g);
  ASSERT_EQ(v.degree(0), leaves);
  auto ids = v.incident(0);
  auto nbrs = v.neighbors(0);
  auto wts = v.incident_weights(0);
  for (std::size_t s = 0; s < leaves; ++s) {
    EXPECT_EQ(ids[s], s);                                // insertion order
    EXPECT_EQ(nbrs[s], static_cast<Vertex>(s + 1));
    EXPECT_EQ(wts[s], static_cast<Weight>(s + 1));
    EXPECT_EQ(v.degree(static_cast<Vertex>(s + 1)), 1u);
    EXPECT_EQ(v.neighbors(static_cast<Vertex>(s + 1))[0], 0u);
  }
  EXPECT_EQ(v.total_weight(),
            static_cast<Weight>(leaves * (leaves + 1) / 2));
  EXPECT_EQ(v.max_weight(), static_cast<Weight>(leaves));
}

// Slot-parallel consistency and fill-order contract on a random instance:
// offsets monotone covering exactly 2m slots, every slot consistent with
// its edge record, per-vertex edge ids strictly ascending.
TEST(GraphView, CsrInvariantsOnRandomGraph) {
  Rng rng(17);
  Graph g = gen::random_bipartite(60, 60, 500, rng);
  GraphView v = freeze(g);
  const std::size_t n = v.num_vertices();
  const std::size_t m = v.num_edges();
  auto off = v.offsets();
  ASSERT_EQ(off.size(), n + 1);
  EXPECT_EQ(off[0], 0u);
  EXPECT_EQ(off[n], 2 * m);
  std::size_t degree_sum = 0;
  for (Vertex u = 0; u < n; ++u) {
    ASSERT_LE(off[u], off[u + 1]);
    degree_sum += v.degree(u);
    auto ids = v.incident(u);
    auto nbrs = v.neighbors(u);
    auto wts = v.incident_weights(u);
    for (std::size_t s = 0; s < ids.size(); ++s) {
      const Edge& e = v.edge(ids[s]);
      ASSERT_TRUE(e.has_endpoint(u));
      EXPECT_EQ(nbrs[s], e.other(u));
      EXPECT_EQ(wts[s], e.w);
      if (s > 0) {
        EXPECT_LT(ids[s - 1], ids[s]);  // ascending = old build order
      }
    }
  }
  EXPECT_EQ(degree_sum, 2 * m);
  Weight total = 0;
  Weight max_w = 0;
  for (const Edge& e : v.edges()) {
    total += e.w;
    if (e.w > max_w) max_w = e.w;
  }
  EXPECT_EQ(v.total_weight(), total);
  EXPECT_EQ(v.max_weight(), max_w);
}

TEST(GraphView, FreezeByValueLeavesLvalueBuilderReusable) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  GraphView before = freeze(g);  // copies: g stays usable
  g.add_edge(1, 2, 3);
  GraphView after = freeze(g);
  EXPECT_EQ(before.num_edges(), 1u);
  EXPECT_EQ(after.num_edges(), 2u);
  EXPECT_EQ(before.degree(1), 1u);
  EXPECT_EQ(after.degree(1), 2u);
}

// ---- HK layering vs a serial BFS -------------------------------------------

struct LayeringProblem {
  GraphView g;
  std::vector<std::uint32_t> match_edge;
  std::vector<char> in_left;
  std::vector<char> side;
};

// Builds the BFS layering inputs from a planted instance: the planted
// matching becomes match_edge[], the 2-coloring from bipartition_of
// becomes side/in_left. Returns false when the instance is not bipartite.
bool make_problem(const gen::PlantedInstance& inst, LayeringProblem* out) {
  out->g = freeze(inst.graph);
  out->side = exact::bipartition_of(out->g);
  if (out->side.empty()) return false;
  out->in_left.assign(out->side.begin(), out->side.end());
  for (char& c : out->in_left) c = static_cast<char>(1 - c);  // side 0 = left
  out->match_edge.assign(out->g.num_vertices(), UINT32_MAX);
  auto edges = out->g.edges();
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    if (inst.matching.contains(edges[i].u, edges[i].v)) {
      out->match_edge[edges[i].u] = i;
      out->match_edge[edges[i].v] = i;
    }
  }
  return true;
}

std::vector<gen::PlantedInstance> hard_families() {
  std::vector<gen::PlantedInstance> fams;
  fams.push_back(gen::four_cycle_family(9, 2, 3));
  fams.push_back(gen::greedy_trap_paths(11, 4, 3));
  fams.push_back(gen::long_path_family(5, 4, 2, 9));
  fams.push_back(gen::figure1_example());
  fams.push_back(gen::figure2_example());
  return fams;
}

// The layering by definition: a plain serial BFS over alternating paths
// from the free left vertices (non-matching edges left to right, the
// matched edge back). Fills `dist` and returns whether a free right vertex
// is reachable.
bool serial_layering(const LayeringProblem& p,
                     std::vector<std::uint32_t>& dist) {
  const GraphView& g = p.g;
  dist.assign(g.num_vertices(), kUnreached);
  std::deque<Vertex> queue;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (p.in_left[v] && p.match_edge[v] == UINT32_MAX) {
      dist[v] = 0;
      queue.push_back(v);
    }
  }
  bool free_right = false;
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (std::uint32_t ei : g.incident(v)) {
      if (ei == p.match_edge[v]) continue;
      const Vertex u = g.edge(ei).other(v);
      if (dist[u] != kUnreached) continue;
      dist[u] = dist[v] + 1;
      if (p.match_edge[u] == UINT32_MAX) {
        free_right = true;
        continue;
      }
      const Vertex w = g.edge(p.match_edge[u]).other(u);
      dist[w] = dist[u] + 1;
      queue.push_back(w);
    }
  }
  return free_right;
}

// The word-parallel layering must write the serial BFS's dist labels for
// every thread count.
TEST(HkLayering, DistLabelsMatchSerialBfsOnHardFamilies) {
  const auto fams = hard_families();
  for (std::size_t fam = 0; fam < fams.size(); ++fam) {
    LayeringProblem p;
    if (!make_problem(fams[fam], &p)) continue;
    const std::size_t n = p.g.num_vertices();
    std::vector<std::uint32_t> ref;
    const bool ref_hit = serial_layering(p, ref);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      auto& pool = runtime::pool_for(runtime::RuntimeConfig{threads});
      std::vector<std::uint32_t> dist(n, kUnreached);
      const bool hit =
          exact::hk_bfs_layering(p.g, p.match_edge, p.in_left, dist, pool);
      EXPECT_EQ(hit, ref_hit) << "family " << fam << " threads " << threads;
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(dist[v], ref[v])
            << "family " << fam << " threads " << threads << " vertex " << v;
      }
    }
  }
}

// Full solves agree across thread counts and scratch arenas, with and
// without the planted matching as the seed.
TEST(HkLayering, FullSolveMatchesAcrossThreadsAndArenas) {
  const auto fams = hard_families();
  for (std::size_t fam = 0; fam < fams.size(); ++fam) {
    const gen::PlantedInstance& inst = fams[fam];
    LayeringProblem p;
    if (!make_problem(inst, &p)) continue;
    for (const Matching* seed : {static_cast<const Matching*>(nullptr),
                                 &inst.matching}) {
      auto ref = exact::hopcroft_karp(p.g, p.side, 0, seed,
                                      runtime::RuntimeConfig{1});
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        runtime::Arena arena;
        for (int rep = 0; rep < 2; ++rep) {
          auto got = exact::hopcroft_karp(p.g, p.side, 0, seed,
                                          runtime::RuntimeConfig{threads},
                                          &arena);
          EXPECT_EQ(got.phases, ref.phases) << "family " << fam;
          EXPECT_EQ(got.matching, ref.matching)
              << "family " << fam << " threads " << threads;
          arena.reset();
        }
      }
    }
  }
}

// A deeper layering on a random bipartite instance seeded with a maximal
// (not maximum) greedy matching, so several BFS levels exist and the
// word-parallel frontier crosses word boundaries.
TEST(HkLayering, DeepLayeringOnRandomBipartite) {
  Rng rng(23);
  const std::size_t half = 300;
  Graph g = gen::random_bipartite(half, half, 2400, rng);
  LayeringProblem p;
  p.g = freeze(g);
  p.side = exact::bipartition_of(p.g);
  ASSERT_FALSE(p.side.empty());
  p.in_left.assign(p.side.begin(), p.side.end());
  for (char& c : p.in_left) c = static_cast<char>(1 - c);
  // Greedy maximal matching in edge order — leaves augmenting paths behind.
  p.match_edge.assign(p.g.num_vertices(), UINT32_MAX);
  auto edges = p.g.edges();
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    if (p.match_edge[edges[i].u] == UINT32_MAX &&
        p.match_edge[edges[i].v] == UINT32_MAX) {
      p.match_edge[edges[i].u] = i;
      p.match_edge[edges[i].v] = i;
    }
  }
  const std::size_t n = p.g.num_vertices();
  std::vector<std::uint32_t> ref;
  const bool ref_hit = serial_layering(p, ref);
  std::size_t reached = 0;
  for (std::uint32_t d : ref) reached += (d != kUnreached);
  EXPECT_GT(reached, 0u);  // the layering actually did work
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto& pool = runtime::pool_for(runtime::RuntimeConfig{threads});
    std::vector<std::uint32_t> dist(n, kUnreached);
    EXPECT_EQ(
        exact::hk_bfs_layering(p.g, p.match_edge, p.in_left, dist, pool),
        ref_hit);
    EXPECT_EQ(dist, ref) << "threads " << threads;
  }
}

}  // namespace
}  // namespace wmatch
