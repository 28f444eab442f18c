#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "exact/brute_force.h"
#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "hot_path.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace wmatch {
namespace {

// Hopcroft-Karp as a speculate + commit + retry scheme, run serially: the
// same phases (a full level-synchronous BFS layering, then a speculative
// DFS from every free root against the phase-start snapshot with one
// shared dead set, then an ordered commit that reruns a conflicting
// root's DFS on the live state). An exhausted frame retires its entry
// edge's right endpoint in both walks. The library's live serial walk
// commits the first path of each root's live search space, which is this
// scheme's clean candidate whenever there is one, so it must return the
// same matching and phase count at every thread count.
namespace reference {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();

exact::HopcroftKarpResult seed_hopcroft_karp(const GraphView& g,
                                             const std::vector<char>& side,
                                             std::size_t max_phases,
                                             const Matching* initial) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> match_edge(n, kNoEdge);
  if (initial) {
    for (const Edge& me : initial->edges()) {
      for (std::uint32_t ei : g.incident(me.u)) {
        if (g.edge(ei).has_endpoint(me.v)) {
          match_edge[me.u] = ei;
          match_edge[me.v] = ei;
          break;
        }
      }
    }
  }
  auto mate = [&](Vertex v) -> Vertex {
    return match_edge[v] == kNoEdge ? kNoVertex
                                    : g.edge(match_edge[v]).other(v);
  };
  std::vector<std::uint32_t> dist(n, 0);

  // Plain serial BFS: the bitset BFS's labels are those of this one.
  auto bfs = [&]() -> bool {
    std::fill(dist.begin(), dist.end(), kInf);
    std::vector<Vertex> cur;
    for (Vertex v = 0; v < n; ++v) {
      if (side[v] == 0 && match_edge[v] == kNoEdge) {
        dist[v] = 0;
        cur.push_back(v);
      }
    }
    bool reachable_free_right = false;
    std::uint32_t level = 0;
    while (!cur.empty()) {
      std::vector<Vertex> next;
      for (Vertex v : cur) {
        for (std::uint32_t ei : g.incident(v)) {
          if (ei == match_edge[v]) continue;
          const Vertex u = g.edge(ei).other(v);
          if (dist[u] != kInf) continue;
          dist[u] = level + 1;
          const Vertex mw = mate(u);
          if (mw == kNoVertex) {
            reachable_free_right = true;
          } else {
            dist[mw] = level + 2;
            next.push_back(mw);
          }
        }
      }
      cur = std::move(next);
      level += 2;
    }
    return reachable_free_right;
  };

  struct Frame {
    Vertex v;
    std::size_t it;
    std::uint32_t entry;
    Vertex entry_right;
  };
  auto walk = [&](Vertex root, auto&& skip,
                  auto&& mark_dead) -> std::vector<std::uint32_t> {
    std::vector<Frame> stack{{root, 0, kNoEdge, kNoVertex}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto inc = g.incident(f.v);
      bool descended = false;
      for (; f.it < inc.size(); ++f.it) {
        const std::uint32_t ei = inc[f.it];
        if (ei == match_edge[f.v]) continue;
        const Vertex u = g.edge(ei).other(f.v);
        if (dist[u] != dist[f.v] + 1) continue;
        if (skip(u)) continue;
        const Vertex w = mate(u);
        if (w == kNoVertex) {
          std::vector<std::uint32_t> path;
          for (const Frame& fr : stack) {
            if (fr.entry != kNoEdge) path.push_back(fr.entry);
          }
          path.push_back(ei);
          return path;
        }
        if (dist[w] == dist[u] + 1) {
          ++f.it;
          stack.push_back({w, 0, ei, u});
          descended = true;
          break;
        }
        mark_dead(u);
      }
      if (descended) continue;
      if (f.entry != kNoEdge) mark_dead(f.entry_right);
      stack.pop_back();
    }
    return {};
  };

  std::vector<char> claimed(n, 0);
  auto commit = [&](const std::vector<std::uint32_t>& path) {
    for (std::uint32_t ei : path) {
      const Edge& e = g.edge(ei);
      match_edge[e.u] = ei;
      match_edge[e.v] = ei;
      claimed[e.u] = claimed[e.v] = 1;
      dist[e.u] = dist[e.v] = kInf;
    }
  };

  std::size_t phases = 0;
  while (max_phases == 0 || phases < max_phases) {
    if (!bfs()) break;
    bool any = false;
    std::vector<Vertex> roots;
    for (Vertex v = 0; v < n; ++v) {
      if (side[v] == 0 && match_edge[v] == kNoEdge && dist[v] == 0) {
        roots.push_back(v);
      }
    }
    std::vector<std::vector<std::uint32_t>> candidate(roots.size());
    std::vector<char> dead(n, 0);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      candidate[i] = walk(
          roots[i], [&](Vertex u) { return dead[u] != 0; },
          [&](Vertex u) { dead[u] = 1; });
    }
    std::fill(claimed.begin(), claimed.end(), 0);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const std::vector<std::uint32_t>& path = candidate[i];
      if (path.empty()) continue;
      bool clean = true;
      for (std::uint32_t ei : path) {
        const Edge& e = g.edge(ei);
        if (claimed[e.u] || claimed[e.v]) {
          clean = false;
          break;
        }
      }
      if (!clean) {
        const std::vector<std::uint32_t> rerun = walk(
            roots[i], [](Vertex) { return false; },
            [&](Vertex u) { dist[u] = kInf; });
        if (rerun.empty()) continue;
        commit(rerun);
      } else {
        commit(path);
      }
      any = true;
    }
    ++phases;
    if (!any) break;
  }

  Matching m(n);
  for (Vertex v = 0; v < n; ++v) {
    if (match_edge[v] != kNoEdge && v < g.edge(match_edge[v]).other(v)) {
      m.add(g.edge(match_edge[v]));
    }
  }
  return {std::move(m), phases};
}

}  // namespace reference

std::vector<char> sides_by_cut(std::size_t n_left, std::size_t n) {
  std::vector<char> side(n, 1);
  for (std::size_t v = 0; v < n_left; ++v) side[v] = 0;
  return side;
}

TEST(HopcroftKarp, PerfectMatchingOnCompleteBipartite) {
  const std::size_t k = 6;
  Graph g(2 * k);
  for (Vertex u = 0; u < k; ++u) {
    for (Vertex v = 0; v < k; ++v) {
      g.add_edge(u, static_cast<Vertex>(k + v), 1);
    }
  }
  auto r = exact::hopcroft_karp(freeze(g), sides_by_cut(k, 2 * k));
  EXPECT_EQ(r.matching.size(), k);
}

TEST(HopcroftKarp, MatchesBruteForceCardinality) {
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t nl = 3 + rng.next_below(5);
    std::size_t nr = 3 + rng.next_below(5);
    std::size_t m = 1 + rng.next_below(std::min<std::size_t>(nl * nr, 24));
    Graph g = gen::random_bipartite(nl, nr, m, rng);
    auto r = exact::hopcroft_karp(freeze(g), sides_by_cut(nl, nl + nr));
    EXPECT_EQ(r.matching.size(), exact::brute_force_max_cardinality(freeze(g)));
    EXPECT_TRUE(is_valid_matching(r.matching, g));
  }
}

TEST(HopcroftKarp, RejectsIntraSideEdge) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  std::vector<char> side{0, 0, 1, 1};
  EXPECT_THROW(exact::hopcroft_karp(freeze(g), side), std::invalid_argument);
}

TEST(HopcroftKarp, PhaseLimitGivesApproximation) {
  // A long augmenting-path chain where one phase is not enough for
  // optimality but still guarantees no short augmenting paths.
  Rng rng(9);
  Graph g = gen::random_bipartite(80, 80, 500, rng);
  auto side = sides_by_cut(80, 160);
  auto full = exact::hopcroft_karp(freeze(g), side);
  for (std::size_t phases = 1; phases <= 4; ++phases) {
    auto limited = exact::hopcroft_karp(freeze(g), side, phases);
    EXPECT_LE(limited.phases, phases);
    // Fact 1.3: after k phases the matching is (1 - 1/(k+1))-approximate.
    double bound = 1.0 - 1.0 / (static_cast<double>(phases) + 1.0);
    EXPECT_GE(static_cast<double>(limited.matching.size()) + 1e-9,
              bound * static_cast<double>(full.matching.size()))
        << phases;
  }
}

TEST(HopcroftKarp, InitialMatchingIsRespectedAndExtended) {
  Graph g(4);
  g.add_edge(0, 2, 5);
  g.add_edge(1, 3, 5);
  std::vector<char> side{0, 0, 1, 1};
  Matching init(4);
  init.add(0, 2, 5);
  auto r = exact::hopcroft_karp(freeze(g), side, 0, &init);
  EXPECT_EQ(r.matching.size(), 2u);
  EXPECT_TRUE(r.matching.contains(0, 2));
}

TEST(HopcroftKarp, InitialMatchingNotInGraphRejected) {
  Graph g(4);
  g.add_edge(0, 2, 5);
  std::vector<char> side{0, 0, 1, 1};
  Matching init(4);
  init.add(1, 3, 5);
  EXPECT_THROW(exact::hopcroft_karp(freeze(g), side, 0, &init),
               std::invalid_argument);
}

TEST(HopcroftKarp, ResultIsInvariantAcrossThreadCounts) {
  // Graphs just below and at the runtime's work cutoff: below it every
  // thread count takes the sequential path, at it the BFS levels run on
  // the pool. Either way the matching and the phase count must equal the
  // one-thread solve's, with and without a seed matching and a phase
  // limit: the BFS labels are thread-independent and the DFS is serial.
  constexpr std::size_t kCutoff = runtime::kParallelWorkCutoff;
  obs::Counter& tasks_run = obs::counter("pool.tasks_run");
  for (std::size_t m : {kCutoff - 1, kCutoff}) {
    Rng rng(13);
    const GraphView g = freeze(gen::random_bipartite(150, 150, m, rng));
    const auto side = sides_by_cut(150, 300);
    Matching greedy(300);  // maximal, not maximum: augmenting paths remain
    for (const Edge& e : g.edges()) {
      if (!greedy.is_matched(e.u) && !greedy.is_matched(e.v)) greedy.add(e);
    }
    for (const Matching* initial :
         {static_cast<const Matching*>(nullptr),
          static_cast<const Matching*>(&greedy)}) {
      for (std::size_t max_phases : {std::size_t{0}, std::size_t{2}}) {
        const auto base = exact::hopcroft_karp(g, side, max_phases, initial,
                                               runtime::RuntimeConfig{1});
        for (std::size_t threads : {2u, 4u}) {
          const std::uint64_t before = tasks_run.value();
          const auto r = exact::hopcroft_karp(g, side, max_phases, initial,
                                              runtime::RuntimeConfig{threads});
          const std::uint64_t tasks = tasks_run.value() - before;
          EXPECT_EQ(r.phases, base.phases) << m << " edges, " << threads;
          EXPECT_EQ(r.matching, base.matching) << m << " edges, " << threads;
          if (m < kCutoff) {
            EXPECT_EQ(tasks, 0u) << threads << " threads";
          } else {
            EXPECT_GT(tasks, 0u) << threads << " threads";
          }
        }
      }
    }
  }
}

/// A random bipartite graph on n_left + n_right vertices. `orientation` 0
/// stores every edge as (left, right), 1 as (right, left), 2 picks one of
/// the two per edge at random.
GraphView oriented_bipartite(std::size_t n_left, std::size_t n_right,
                             std::size_t m, int orientation, Rng& rng) {
  const Graph g = gen::random_bipartite(n_left, n_right, m, rng);
  Graph out(g.num_vertices());
  for (const Edge& e : g.edges()) {
    const bool flip = orientation == 1 || (orientation == 2 && (rng.next() & 1) != 0);
    if (flip) {
      out.add_edge(e.v, e.u, e.w);
    } else {
      out.add_edge(e.u, e.v, e.w);
    }
  }
  return freeze(std::move(out));
}

TEST(HopcroftKarp, MatchesSeedWalkAtEveryThreadCount) {
  // Below and above runtime::kParallelWorkCutoff, dense and sparse (deep
  // layerings, many commit conflicts), with edges stored (left, right),
  // (right, left) and mixed; with and without a maximal initial matching
  // and a phase limit; at 1, 2 and 4 threads.
  constexpr std::size_t kCutoff = runtime::kParallelWorkCutoff;
  struct Shape {
    std::size_t n_left, n_right, m;
  };
  for (const Shape& shape : {Shape{150, 150, kCutoff - 1},
                             Shape{400, 300, kCutoff + 904},
                             Shape{1500, 1500, 2 * kCutoff},
                             Shape{2000, 2000, 3000}}) {
    for (int orientation = 0; orientation < 3; ++orientation) {
      Rng rng(shape.m + static_cast<std::uint64_t>(orientation));
      const GraphView g = oriented_bipartite(shape.n_left, shape.n_right,
                                             shape.m, orientation, rng);
      const auto side = sides_by_cut(shape.n_left, g.num_vertices());
      Matching greedy(g.num_vertices());
      for (const Edge& e : g.edges()) {
        if (!greedy.is_matched(e.u) && !greedy.is_matched(e.v)) greedy.add(e);
      }
      for (const Matching* initial :
           {static_cast<const Matching*>(nullptr),
            static_cast<const Matching*>(&greedy)}) {
        for (std::size_t max_phases : {std::size_t{0}, std::size_t{2}}) {
          const auto want =
              reference::seed_hopcroft_karp(g, side, max_phases, initial);
          for (std::size_t threads : {1u, 2u, 4u}) {
            const auto got = exact::hopcroft_karp(
                g, side, max_phases, initial, runtime::RuntimeConfig{threads});
            const std::string what =
                std::to_string(shape.m) + " edges, orientation " +
                std::to_string(orientation) + ", " + std::to_string(threads) +
                " threads, max_phases " + std::to_string(max_phases) +
                (initial ? ", seeded" : "");
            EXPECT_EQ(got.phases, want.phases) << what;
            EXPECT_EQ(got.matching, want.matching) << what;
          }
        }
      }
    }
  }
}

/// Edges on a shortest augmenting path for `m`, found by an alternating
/// BFS from the free left vertices; 0 when `m` has no augmenting path.
std::size_t shortest_augmenting_path(const GraphView& g,
                                     const std::vector<char>& side,
                                     const Matching& m) {
  constexpr std::size_t kUnseen = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> level(g.num_vertices(), kUnseen);
  std::vector<Vertex> cur;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (side[v] == 0 && !m.is_matched(v)) {
      level[v] = 0;
      cur.push_back(v);
    }
  }
  while (!cur.empty()) {
    std::vector<Vertex> next;
    for (Vertex v : cur) {
      for (Vertex u : g.neighbors(v)) {
        if (u == m.mate(v) || level[u] != kUnseen) continue;
        level[u] = level[v] + 1;
        if (!m.is_matched(u)) return level[u];
        const Vertex w = m.mate(u);
        if (level[w] == kUnseen) {
          level[w] = level[u] + 1;
          next.push_back(w);
        }
      }
    }
    cur = std::move(next);
  }
  return 0;
}

TEST(HopcroftKarp, PhaseLimitLeavesNoShortAugmentingPath) {
  // Fact 1.3 as the black box uses it: k maximal phases leave no
  // augmenting path of 2k-1 or fewer edges. Edges stored (left, right),
  // (right, left) and mixed; with and without a maximal initial matching;
  // dense and sparse, below and above runtime::kParallelWorkCutoff; at 1,
  // 2 and 4 threads.
  constexpr std::size_t kCutoff = runtime::kParallelWorkCutoff;
  struct Shape {
    std::size_t n_left, n_right, m;
  };
  for (const Shape& shape : {Shape{60, 60, 150}, Shape{300, 300, 900},
                             Shape{150, 150, kCutoff - 1},
                             Shape{2000, 2000, kCutoff + 1000}}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      for (int orientation = 0; orientation < 3; ++orientation) {
        Rng rng(100 * seed + shape.m + static_cast<std::uint64_t>(orientation));
        const GraphView g = oriented_bipartite(shape.n_left, shape.n_right,
                                               shape.m, orientation, rng);
        const auto side = sides_by_cut(shape.n_left, g.num_vertices());
        Matching greedy(g.num_vertices());
        for (const Edge& e : g.edges()) {
          if (!greedy.is_matched(e.u) && !greedy.is_matched(e.v)) greedy.add(e);
        }
        for (const Matching* initial :
             {static_cast<const Matching*>(nullptr),
              static_cast<const Matching*>(&greedy)}) {
          for (std::size_t k = 1; k <= 4; ++k) {
            for (std::size_t threads : {1u, 2u, 4u}) {
              const auto r = exact::hopcroft_karp(
                  g, side, k, initial, runtime::RuntimeConfig{threads});
              const std::size_t len =
                  shortest_augmenting_path(g, side, r.matching);
              EXPECT_TRUE(len == 0 || len >= 2 * k + 1)
                  << shape.m << " edges, seed " << seed << ", orientation "
                  << orientation << ", k " << k << ", " << threads
                  << " threads" << (initial ? ", seeded" : "")
                  << ": augmenting path of " << len << " edges";
            }
          }
        }
      }
    }
  }
}

TEST(HopcroftKarp, HotPathKernelChecksumMatchesReference) {
  // bench_micro_kernels' hk-solve kernel: a serve exact-hk instance,
  // solved at 1 and 4 threads, must fold to the reference's checksum.
  const api::Instance inst = bench::hot_path::serve_hk_instance();
  const std::uint64_t want = bench::hot_path::hk_solve_checksum(
      inst, [](const GraphView& g, const std::vector<char>& side) {
        return reference::seed_hopcroft_karp(g, side, 0, nullptr);
      });
  for (std::size_t threads : {1u, 4u}) {
    EXPECT_EQ(bench::hot_path::hk_solve_checksum(
                  inst,
                  [&](const GraphView& g, const std::vector<char>& side) {
                    return exact::hopcroft_karp(
                        g, side, 0, nullptr, runtime::RuntimeConfig{threads});
                  }),
              want)
        << threads << " threads";
  }
}

TEST(HopcroftKarp, PhasesGrowLogarithmically) {
  // Hopcroft-Karp needs O(sqrt(V)) phases; on random graphs far fewer.
  Rng rng(11);
  Graph g = gen::random_bipartite(200, 200, 1200, rng);
  auto r = exact::hopcroft_karp(freeze(g), sides_by_cut(200, 400));
  EXPECT_LE(r.phases, 20u);
  EXPECT_GT(r.matching.size(), 150u);
}

TEST(Bipartition, TwoColorsAPathAndRejectsOddCycle) {
  Graph p(4);
  p.add_edge(0, 1, 1);
  p.add_edge(1, 2, 1);
  p.add_edge(2, 3, 1);
  auto side = exact::bipartition_of(freeze(p));
  ASSERT_EQ(side.size(), 4u);
  EXPECT_NE(side[0], side[1]);
  EXPECT_NE(side[1], side[2]);

  Graph tri(3);
  tri.add_edge(0, 1, 1);
  tri.add_edge(1, 2, 1);
  tri.add_edge(0, 2, 1);
  EXPECT_TRUE(exact::bipartition_of(freeze(tri)).empty());
}

}  // namespace
}  // namespace wmatch
