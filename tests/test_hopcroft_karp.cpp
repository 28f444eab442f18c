#include <gtest/gtest.h>

#include "exact/brute_force.h"
#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace wmatch {
namespace {

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
  // thread count takes the sequential path, at it the BFS levels and the
  // speculative DFS batch run on the pool. Either way the matching and
  // the phase count must equal the one-thread solve's, with and without a
  // seed matching and a phase limit: the snapshot speculation is
  // thread-independent and commits are ordered.
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
