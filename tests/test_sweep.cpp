// Tests for the sweep subsystem: grid expansion, counter determinism
// across thread counts at fixed seed, hard-instance GenSpec round-trips
// through generate_instance, skip handling for incompatible cells, the
// BENCH JSON emission contract, and a smoke run of every preset.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "exact/blossom.h"
#include "graph/matching.h"
#include "sweep/presets.h"
#include "sweep/sweep.h"

namespace wmatch {
namespace {

sweep::SweepSpec tiny_spec() {
  sweep::SweepSpec spec;
  spec.name = "tiny";
  spec.solvers = {"greedy", "local-ratio", "reduction-hk"};
  api::GenSpec bip;
  bip.generator = "bipartite";
  bip.n = 40;
  bip.m = 160;
  api::GenSpec trap;
  trap.generator = "hard-greedy-trap";
  trap.n = 32;
  spec.instances = {bip, trap};
  spec.epsilons = {0.2};
  spec.seeds = {7, 8};
  return spec;
}

TEST(SweepGrid, ExpansionCountIsProductOfAxes) {
  sweep::SweepSpec spec = tiny_spec();
  spec.epsilons = {0.1, 0.2, 0.3};
  spec.threads = {1, 2};
  // 3 solvers x 2 instances x 3 epsilons x 2 threads x 2 seeds.
  EXPECT_EQ(sweep::expand_grid(spec).size(), 3u * 2u * 3u * 2u * 2u);
}

TEST(SweepGrid, CellsCarryResolvedAxisValues) {
  const sweep::SweepSpec spec = tiny_spec();
  const auto cells = sweep::expand_grid(spec);
  ASSERT_EQ(cells.size(), 12u);
  // Expansion is instance-major, then seeds, solvers, epsilons, threads.
  EXPECT_EQ(cells[0].gen.generator, "bipartite");
  EXPECT_EQ(cells[0].solver, "greedy");
  EXPECT_EQ(cells[0].seed, 7u);
  EXPECT_EQ(cells[0].gen.seed, 7u);  // seed axis overrides the GenSpec seed
  EXPECT_EQ(cells.back().gen.generator, "hard-greedy-trap");
  EXPECT_EQ(cells.back().solver, "reduction-hk");
  EXPECT_EQ(cells.back().seed, 8u);
}

TEST(SweepGrid, EmptyAxesThrow) {
  sweep::SweepSpec spec = tiny_spec();
  spec.solvers.clear();
  EXPECT_THROW(sweep::expand_grid(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.seeds.clear();
  EXPECT_THROW(sweep::expand_grid(spec), std::invalid_argument);
}

TEST(RunSweep, UnknownSolverThrows) {
  sweep::SweepSpec spec = tiny_spec();
  spec.solvers = {"no-such-solver"};
  EXPECT_THROW(sweep::run_sweep(spec), std::invalid_argument);
}

// The acceptance contract: exact counters in the emitted results are
// bit-identical across thread counts at equal seed — only wall clock may
// differ. Covers the parallelized reduction solvers (per-class loop +
// Hopcroft-Karp layers) at 1 / 2 / 8 threads, including the now-metered
// reduction-hk memory column.
TEST(RunSweep, CountersAreDeterministicAcrossThreadCounts) {
  sweep::SweepSpec spec = tiny_spec();
  spec.solvers = {"greedy", "rand-arrival", "reduction-hk", "reduction-mpc",
                  "reduction-exact"};

  sweep::SweepSpec t1 = spec, t2 = spec, t8 = spec;
  t1.threads = {1};
  t2.threads = {2};
  t8.threads = {8};
  const sweep::SweepResult a = sweep::run_sweep(t1);
  for (const sweep::SweepResult& b :
       {sweep::run_sweep(t2), sweep::run_sweep(t8)}) {
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
      const sweep::SweepRow& x = a.rows[i];
      const sweep::SweepRow& y = b.rows[i];
      ASSERT_EQ(x.cell.solver, y.cell.solver);
      EXPECT_EQ(x.skipped, y.skipped);
      EXPECT_EQ(x.matching_size, y.matching_size) << x.cell.solver;
      EXPECT_EQ(x.matching_weight, y.matching_weight) << x.cell.solver;
      EXPECT_EQ(x.cost.passes, y.cost.passes) << x.cell.solver;
      EXPECT_EQ(x.cost.rounds, y.cost.rounds) << x.cell.solver;
      EXPECT_EQ(x.cost.memory_peak_words, y.cost.memory_peak_words)
          << x.cell.solver;
      EXPECT_EQ(x.cost.communication_words, y.cost.communication_words)
          << x.cell.solver;
      EXPECT_EQ(x.cost.bb_invocations, y.cost.bb_invocations)
          << x.cell.solver;
      EXPECT_EQ(x.cost.bb_max_invocation_cost, y.cost.bb_max_invocation_cost)
          << x.cell.solver;
    }
  }
  // The metering fix: reduction-hk's semi-streaming storage reports.
  for (const sweep::SweepRow& row : a.rows) {
    if (row.cell.solver == "reduction-hk" && !row.skipped) {
      EXPECT_GT(row.cost.memory_peak_words, 0u) << row.instance_name;
    }
  }
}

TEST(RunSweep, RepetitionsKeepCountersAndAggregateWall) {
  sweep::SweepSpec spec = tiny_spec();
  spec.solvers = {"local-ratio"};
  spec.seeds = {7};
  spec.repetitions = 3;
  spec.warmup = 1;
  const sweep::SweepResult once = sweep::run_sweep([&] {
    sweep::SweepSpec s = spec;
    s.repetitions = 1;
    s.warmup = 0;
    return s;
  }());
  const sweep::SweepResult reps = sweep::run_sweep(spec);
  ASSERT_EQ(once.rows.size(), reps.rows.size());
  for (std::size_t i = 0; i < reps.rows.size(); ++i) {
    EXPECT_EQ(once.rows[i].cost.memory_peak_words,
              reps.rows[i].cost.memory_peak_words);
    EXPECT_EQ(once.rows[i].matching_weight, reps.rows[i].matching_weight);
    EXPECT_GE(reps.rows[i].wall_ms_median, reps.rows[i].wall_ms_min);
  }
}

TEST(RunSweep, BipartiteOnlySolverIsSkippedOnGeneralGraphs) {
  sweep::SweepSpec spec;
  spec.solvers = {"exact-hk"};
  api::GenSpec er;
  er.n = 30;
  er.m = 200;  // dense G(n,m): overwhelmingly likely to contain odd cycles
  api::GenSpec bip;
  bip.generator = "bipartite";
  bip.n = 30;
  bip.m = 60;
  spec.instances = {er, bip};
  spec.seeds = {3};
  const sweep::SweepResult r = sweep::run_sweep(spec);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[0].skipped);
  EXPECT_FALSE(r.rows[1].skipped);
  EXPECT_GT(r.rows[1].matching_size, 0u);
  // Tables render for mixed skipped/ran rows without arity errors.
  EXPECT_EQ(r.table().rows(), 2u);
  EXPECT_GE(r.summary_table().rows(), 2u);
}

TEST(SweepJson, EmitsSchemaVersionAndCountersWithoutTableKeys) {
  sweep::SweepSpec spec = tiny_spec();
  spec.solvers = {"greedy"};
  spec.seeds = {7};
  const sweep::SweepResult r = sweep::run_sweep(spec);
  std::ostringstream os;
  r.print_bench_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  // Sweep, batch and serve BENCH documents share one shape: the structured
  // "results" array, with no printed-table "columns"/"rows" copy.
  EXPECT_EQ(json.find("\"columns\":"), std::string::npos);
  EXPECT_EQ(json.find("\"rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"results\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"passes\":1"), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"greedy\""), std::string::npos);
  EXPECT_NE(json.find("\"generator\":\"hard-greedy-trap\""),
            std::string::npos);
}

// ---- Hard-instance GenSpec round-trips ----

TEST(HardGenSpec, FamiliesRoundTripThroughGenerateInstance) {
  for (const char* family :
       {"hard-four-cycle", "hard-greedy-trap", "hard-long-path",
        "hard-planted-augs", "hard-figure1", "hard-figure2"}) {
    api::GenSpec gen;
    gen.generator = family;
    gen.n = 48;
    gen.max_weight = 64;
    gen.seed = 5;
    const api::Instance inst = api::generate_instance(gen);
    EXPECT_GT(inst.num_vertices(), 0u) << family;
    EXPECT_GT(inst.num_edges(), 0u) << family;
    EXPECT_EQ(inst.stream.size(), inst.num_edges()) << family;
    EXPECT_EQ(inst.name, family);
    ASSERT_TRUE(inst.has_known_optimum()) << family;
    // The planted optimum is the real optimum: Blossom must agree.
    EXPECT_EQ(exact::blossom_max_weight(inst.graph).weight(),
              inst.known_optimal_weight)
        << family;
  }
}

TEST(HardGenSpec, RandomFamiliesDoNotClaimAnOptimum) {
  api::GenSpec gen;
  gen.n = 30;
  gen.m = 60;
  EXPECT_FALSE(api::generate_instance(gen).has_known_optimum());
}

TEST(HardGenSpec, DeterministicAtFixedSeedAndHonorsSize) {
  api::GenSpec gen;
  gen.generator = "hard-planted-augs";
  gen.n = 64;
  gen.beta = 0.5;
  gen.seed = 11;
  const api::Instance a = api::generate_instance(gen);
  const api::Instance b = api::generate_instance(gen);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.known_optimal_weight, b.known_optimal_weight);
  ASSERT_EQ(a.stream.size(), b.stream.size());
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    EXPECT_EQ(a.stream[i], b.stream[i]);
  }
  EXPECT_EQ(a.num_vertices(), 64u);  // 4 * (n/4) vertices

  api::GenSpec long_path;
  long_path.generator = "hard-long-path";
  long_path.n = 48;
  long_path.aug_length = 2;
  const api::Instance lp = api::generate_instance(long_path);
  EXPECT_EQ(lp.num_vertices(), 48u);  // k = n / (2*(L+1)) gadgets exactly
}

TEST(HardGenSpec, UnknownGeneratorThrowsAndListsAreConsistent) {
  api::GenSpec gen;
  gen.generator = "no-such-family";
  EXPECT_THROW(api::generate_instance(gen), std::invalid_argument);
  EXPECT_FALSE(api::is_known_generator("no-such-family"));
  for (const std::string& name : api::known_generators()) {
    EXPECT_TRUE(api::is_known_generator(name)) << name;
  }
  EXPECT_TRUE(api::is_known_generator("hard-four-cycle"));
}

// ---- Presets ----

TEST(Presets, KnownNamesResolveAndUnknownThrows) {
  for (const std::string& name : sweep::preset_names()) {
    const sweep::SweepSpec spec = sweep::preset(name);
    EXPECT_FALSE(spec.solvers.empty()) << name;
    EXPECT_FALSE(spec.instances.empty()) << name;
    EXPECT_TRUE(sweep::is_known_preset(name)) << name;
  }
  EXPECT_FALSE(sweep::is_known_preset("e99"));
  EXPECT_THROW(sweep::preset("e99"), std::invalid_argument);
}

// Smoke run of every preset, cut to its first seed and first instance
// family: `wmatch_cli bench --preset=NAME` is the only experiment runner,
// so this is the check that each grid still runs end to end and that no
// cell falls outside [registered guarantee, 1].
TEST(Presets, EveryPresetRunsWithinGuaranteeOnItsFirstCell) {
  const api::Registry& registry = api::Registry::instance();
  for (const std::string& name : sweep::preset_names()) {
    sweep::SweepSpec spec = sweep::preset(name);
    spec.seeds = {spec.seeds.front()};
    spec.instances = {spec.instances.front()};
    spec.jobs = 0;
    sweep::SweepResult r;
    ASSERT_NO_THROW(r = sweep::run_sweep(spec)) << name;
    EXPECT_EQ(r.rows.size(), sweep::expand_grid(spec).size()) << name;
    for (const sweep::SweepRow& row : r.rows) {
      if (!row.has_ratio()) continue;
      EXPECT_LE(row.ratio(), 1.0) << name << ' ' << row.cell.solver;
      EXPECT_GE(row.ratio(), registry.info(row.cell.solver).guarantee)
          << name << ' ' << row.cell.solver << " eps=" << row.cell.epsilon;
    }
  }
}

TEST(Presets, CiPresetCoversAdversarialFamiliesAndBothModels) {
  const sweep::SweepSpec spec = sweep::preset("ci");
  bool has_hard = false;
  for (const api::GenSpec& g : spec.instances) {
    if (g.generator.rfind("hard-", 0) == 0) has_hard = true;
  }
  EXPECT_TRUE(has_hard);
  bool has_streaming = false, has_mpc = false;
  for (const std::string& s : spec.solvers) {
    const std::string model = api::Registry::instance().info(s).model;
    has_streaming |= model == "streaming";
    has_mpc |= model == "mpc";
  }
  EXPECT_TRUE(has_streaming);
  EXPECT_TRUE(has_mpc);
}

}  // namespace
}  // namespace wmatch
