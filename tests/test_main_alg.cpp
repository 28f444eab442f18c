#include <gtest/gtest.h>

#include "api/api.h"
#include "core/main_alg.h"
#include "exact/blossom.h"
#include "gen/generators.h"
#include "gen/hard_instances.h"
#include "gen/weights.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace wmatch {
namespace {

core::ReductionConfig fast_config() {
  core::ReductionConfig cfg;
  cfg.epsilon = 0.2;
  cfg.tau.max_layers = 4;
  cfg.tau.max_pairs = 600;
  cfg.max_iterations = 6;
  return cfg;
}

TEST(MainAlg, ReachesNearOptimumOnSmallRandomGraphs) {
  Rng master(1);
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng = master.split();
    Graph g = gen::erdos_renyi(30, 120, rng);
    g = gen::assign_weights(g, gen::WeightDist::kUniform, 64, rng);
    core::ExactMatcher matcher;
    auto result =
        core::maximum_weight_matching(freeze(g), fast_config(), matcher, rng);
    Matching opt = exact::blossom_max_weight(freeze(g));
    EXPECT_TRUE(is_valid_matching(result.matching, g));
    EXPECT_GE(static_cast<double>(result.matching.weight()),
              (1.0 - 0.2) * static_cast<double>(opt.weight()))
        << "trial " << trial;
  }
}

TEST(MainAlg, SolvesFourCycleFamilyViaCycles) {
  auto inst = gen::four_cycle_family(6, 3, 1);
  core::ReductionConfig cfg = fast_config();
  cfg.tau.granularity = 0.125;  // unit 1 near W=8; cycle profile needs it
  cfg.tau.max_layers = 6;
  cfg.max_iterations = 12;
  Rng rng(2);
  core::ExactMatcher matcher;
  auto result = core::maximum_weight_matching(freeze(inst.graph), cfg, matcher, rng,
                                              &inst.matching);
  // Should recover most of the cycle gain (each cycle worth +2).
  EXPECT_GT(result.matching.weight(), inst.matching.weight());
}

TEST(MainAlg, CycleAblationCannotImprovePerfectMatching) {
  auto inst = gen::four_cycle_family(4, 3, 1);
  core::ReductionConfig cfg = fast_config();
  cfg.enable_cycles = false;
  cfg.max_iterations = 6;
  Rng rng(3);
  core::ExactMatcher matcher;
  auto result = core::maximum_weight_matching(freeze(inst.graph), cfg, matcher, rng,
                                              &inst.matching);
  EXPECT_EQ(result.matching.weight(), inst.matching.weight());
}

TEST(MainAlg, StartsFromEmptyMatchingByDefault) {
  Rng rng(4);
  Graph g = gen::erdos_renyi(20, 60, rng);
  g = gen::assign_weights(g, gen::WeightDist::kUniform, 32, rng);
  core::ExactMatcher matcher;
  auto result = core::maximum_weight_matching(freeze(g), fast_config(), matcher, rng);
  EXPECT_GT(result.matching.weight(), 0);
  EXPECT_GE(result.iterations, 1u);
}

TEST(MainAlg, ParallelModelCostStaysConstantInN) {
  // Theorem 1.2: pass/round cost depends on epsilon, not on n.
  Rng rng(5);
  std::size_t per_iter_cost[2];
  std::size_t idx = 0;
  for (std::size_t n : {24u, 96u}) {
    Graph g = gen::erdos_renyi(n, 4 * n, rng);
    g = gen::assign_weights(g, gen::WeightDist::kUniform, 64, rng);
    core::HkStreamingMatcher matcher;
    auto result =
        core::maximum_weight_matching(freeze(g), fast_config(), matcher, rng);
    per_iter_cost[idx++] = result.parallel_model_cost / result.iterations;
  }
  // Identical delta -> identical per-iteration bound for both sizes.
  std::size_t budget = 40;  // sum of phase passes for delta = 0.1 plus one
  EXPECT_LE(per_iter_cost[0], budget);
  EXPECT_LE(per_iter_cost[1], budget);
}

TEST(MainAlg, LongAugmentationsNeedDeepLayers) {
  // Structural separation in a single improvement round: with 2-layer
  // graphs only single-edge augmentations exist, so on long_path_family
  // (3 units, light=2, heavy=9) one round gains at most 5 per unit = 15
  // total; graphs with >= 3 layers can realize a whole-unit flip of gain
  // 12 and exceed that bound for some random bipartition.
  bool deep_exceeded = false;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    auto inst = gen::long_path_family(3, 2, 2, 9);
    core::ReductionConfig shallow = fast_config();
    shallow.tau.max_layers = 2;
    shallow.max_iterations = 1;
    core::ReductionConfig deep = fast_config();
    deep.tau.max_layers = 5;
    deep.max_iterations = 1;
    Rng rng1(seed), rng2(seed);
    core::ExactMatcher m1, m2;
    auto rs = core::maximum_weight_matching(freeze(inst.graph), shallow, m1, rng1,
                                            &inst.matching);
    auto rd = core::maximum_weight_matching(freeze(inst.graph), deep, m2, rng2,
                                            &inst.matching);
    EXPECT_LE(rs.total_gain, 15);  // hard bound for 2-layer graphs
    if (rd.total_gain > 15) deep_exceeded = true;
  }
  EXPECT_TRUE(deep_exceeded);
}

TEST(MainAlg, OnePoolTaskPerClassOnSmallSolves) {
  // The ci bipartite cell: its layered graphs are far below the runtime's
  // work cutoff, so the black-box solves inside a class task run
  // sequentially and the pool runs exactly one task per class per round.
  api::GenSpec gen;
  gen.generator = "bipartite";
  gen.n = 200;
  gen.m = 800;
  const api::Instance inst = api::generate_instance(gen);
  obs::Counter& tasks_run = obs::counter("pool.tasks_run");
  for (const char* algo : {"reduction-hk", "reduction-mpc"}) {
    for (std::size_t threads : {2u, 4u}) {
      api::SolverSpec spec;
      spec.epsilon = 0.2;
      spec.runtime.num_threads = threads;
      const std::uint64_t before = tasks_run.value();
      const api::SolveResult r = api::solve(algo, inst, spec);
      const std::uint64_t tasks = tasks_run.value() - before;
      const double rounds = r.stat("iterations", 0.0);
      const double classes = r.stat("classes", 0.0);
      ASSERT_GT(rounds, 0.0) << algo;
      ASSERT_GT(classes, 1.0) << algo;
      EXPECT_EQ(static_cast<double>(tasks), rounds * classes)
          << algo << " at " << threads << " threads";
    }
  }
}

TEST(MainAlg, RejectsBadEpsilon) {
  Graph g(2);
  core::ReductionConfig cfg;
  cfg.epsilon = 0.0;
  core::ExactMatcher matcher;
  Rng rng(7);
  EXPECT_THROW(core::maximum_weight_matching(freeze(g), cfg, matcher, rng),
               std::invalid_argument);
}

TEST(MainAlg, EmptyGraph) {
  Graph g(8);
  core::ExactMatcher matcher;
  Rng rng(8);
  auto result = core::maximum_weight_matching(freeze(g), fast_config(), matcher, rng);
  EXPECT_EQ(result.matching.weight(), 0);
}

}  // namespace
}  // namespace wmatch
