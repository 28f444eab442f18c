#include <gtest/gtest.h>

#include "core/main_alg.h"
#include "core/matcher.h"
#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "mpc/mpc_context.h"
#include "mpc/mpc_matching.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace wmatch {
namespace {

std::vector<char> sides_by_cut(std::size_t n_left, std::size_t n) {
  std::vector<char> side(n, 1);
  for (std::size_t v = 0; v < n_left; ++v) side[v] = 0;
  return side;
}

TEST(MpcContext, RoundAndMemoryAccounting) {
  mpc::MpcContext ctx({4, 100});
  EXPECT_EQ(ctx.rounds(), 0u);
  ctx.begin_round();
  ctx.charge_memory(0, 60);
  ctx.charge_memory(1, 30);
  EXPECT_EQ(ctx.rounds(), 1u);
  EXPECT_EQ(ctx.peak_machine_memory(), 60u);
  EXPECT_FALSE(ctx.memory_violated());
  ctx.charge_memory(0, 50);  // 110 > 100
  EXPECT_TRUE(ctx.memory_violated());
  ctx.release_memory(0, 200);  // clamps
  ctx.charge_communication(12);
  EXPECT_EQ(ctx.total_communication(), 12u);
}

TEST(MpcContext, RejectsBadConfigAndMachine) {
  EXPECT_THROW(mpc::MpcContext({0, 10}), std::invalid_argument);
  EXPECT_THROW(mpc::MpcContext({2, 0}), std::invalid_argument);
  mpc::MpcContext ctx({2, 10});
  EXPECT_THROW(ctx.charge_memory(5, 1), std::invalid_argument);
}

TEST(MpcMatching, FindsNearOptimalMatching) {
  Rng rng(4);
  Graph g = gen::random_bipartite(100, 100, 800, rng);
  auto side = sides_by_cut(100, 200);
  mpc::MpcConfig config{8, 4 * 200};  // S = Theta(n)
  mpc::MpcContext ctx(config);
  auto result = mpc::mpc_bipartite_matching(freeze(g), side, 0.1, ctx, rng);
  auto exact_r = exact::hopcroft_karp(freeze(g), side);
  EXPECT_GE(static_cast<double>(result.matching.size()),
            0.9 * static_cast<double>(exact_r.matching.size()));
  EXPECT_TRUE(is_valid_matching(result.matching, g));
  EXPECT_GT(result.rounds_used, 0u);
}

TEST(MpcMatching, RoundsScaleGentlyWithSize) {
  Rng rng(5);
  std::size_t prev_rounds = 0;
  for (std::size_t n : {64u, 256u, 1024u}) {
    Graph g = gen::random_bipartite(n, n, 4 * n, rng);
    mpc::MpcContext ctx({8, 8 * n});
    auto result =
        mpc::mpc_bipartite_matching(freeze(g), sides_by_cut(n, 2 * n), 0.2, ctx, rng);
    // Rounds stay in the same ballpark (no linear blow-up).
    EXPECT_LT(result.rounds_used, 80u) << n;
    prev_rounds = result.rounds_used;
  }
  EXPECT_GT(prev_rounds, 0u);
}

TEST(MpcMatching, DeltaControlsQualityVsRounds) {
  Rng rng(6);
  Graph g = gen::random_bipartite(128, 128, 1024, rng);
  auto side = sides_by_cut(128, 256);
  mpc::MpcContext loose_ctx({8, 2048});
  auto loose = mpc::mpc_bipartite_matching(freeze(g), side, 0.5, loose_ctx, rng);
  mpc::MpcContext tight_ctx({8, 2048});
  auto tight = mpc::mpc_bipartite_matching(freeze(g), side, 0.05, tight_ctx, rng);
  EXPECT_GE(tight.matching.size(), loose.matching.size());
  EXPECT_GE(tight.rounds_used, loose.rounds_used);
}

TEST(MpcMatching, RejectsBadDelta) {
  Rng rng(7);
  Graph g = gen::random_bipartite(4, 4, 4, rng);
  mpc::MpcContext ctx({2, 64});
  EXPECT_THROW(
      mpc::mpc_bipartite_matching(freeze(g), sides_by_cut(4, 8), 0.0, ctx, rng),
      std::invalid_argument);
  EXPECT_THROW(
      mpc::mpc_bipartite_matching(freeze(g), sides_by_cut(4, 8), 1.0, ctx, rng),
      std::invalid_argument);
}

TEST(MpcContext, CountersAreThreadSafe) {
  mpc::MpcConfig config{4, 1u << 20};
  config.runtime.num_threads = 4;
  mpc::MpcContext ctx(config);
  runtime::ThreadPool& pool = runtime::pool_for(config.runtime);
  ctx.begin_round();
  runtime::parallel_for(pool, 4000, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ctx.charge_memory(i % 4, 1);
      ctx.charge_communication(1);
    }
  });
  EXPECT_EQ(ctx.total_communication(), 4000u);
  // Each machine received exactly 1000 monotone one-word charges.
  EXPECT_EQ(ctx.peak_machine_memory(), 1000u);
  EXPECT_FALSE(ctx.memory_violated());
  runtime::parallel_for(pool, 4000, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ctx.release_memory(i % 4, 1);
  });
  ctx.release_memory(0, 5);  // clamps at zero under the hood
  ctx.charge_memory(0, 7);
  EXPECT_EQ(ctx.peak_machine_memory(), 1000u);
}

TEST(MpcMatching, ParallelMatchesSequentialBitForBit) {
  Rng grng(11);
  Graph g = gen::random_bipartite(120, 120, 1500, grng);
  auto side = sides_by_cut(120, 240);

  auto run = [&](std::size_t threads) {
    mpc::MpcConfig config{8, 4 * 240};
    config.runtime.num_threads = threads;
    mpc::MpcContext ctx(config);
    Rng rng(99);
    auto r = mpc::mpc_bipartite_matching(freeze(g), side, 0.1, ctx, rng);
    return std::tuple{r.matching.size(), r.matching.weight(), r.rounds_used,
                      ctx.rounds(), ctx.total_communication(),
                      ctx.peak_machine_memory()};
  };
  const auto seq = run(1);
  EXPECT_EQ(run(2), seq);
  EXPECT_EQ(run(8), seq);
}

TEST(MpcMatching, WeightedAlgorithmParallelMatchesSequential) {
  // The e5 preset's reduction-mpc cells at a test-sized n: the full
  // weighted reduction on the MPC simulator yields the same matching weight
  // and round count at a fixed seed for any thread count.
  Rng grng(21);
  Graph g = gen::assign_weights(gen::erdos_renyi(96, 480, grng),
                                gen::WeightDist::kUniform, 1 << 8, grng);

  auto run = [&](std::size_t threads) {
    mpc::MpcConfig config{4, 24 * 96};
    config.runtime.num_threads = threads;
    mpc::MpcContext ctx(config);
    Rng rng(77);
    core::MpcMatcher matcher(ctx, rng);
    core::ReductionConfig cfg;
    cfg.epsilon = 0.25;
    cfg.runtime.num_threads = threads;
    auto r = core::maximum_weight_matching(freeze(g), cfg, matcher, rng);
    return std::tuple{r.matching.weight(), r.matching.size(), r.iterations,
                      ctx.rounds(), r.parallel_model_cost};
  };
  const auto seq = run(1);
  EXPECT_EQ(run(4), seq);
}

TEST(MpcMatching, EmptyGraphTerminates) {
  Rng rng(8);
  Graph g(10);
  mpc::MpcContext ctx({2, 64});
  auto result = mpc::mpc_bipartite_matching(freeze(g), sides_by_cut(5, 10), 0.2,
                                            ctx, rng);
  EXPECT_EQ(result.matching.size(), 0u);
}

}  // namespace
}  // namespace wmatch
