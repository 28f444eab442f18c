// stream workload: closed loop, one api::Solver solve at a time. The
// one-pass solvers (greedy, local-ratio, rand-arrival, unw-rand-arrival)
// run on a weighted bipartite and an erdos_renyi graph with n=2000 m=10000
// streamed in random order; exact-hk and greedy run on one bipartite graph
// with n=50k m=500k. The small graphs and their arrival orders are drawn
// from the workload seed; the large graph is the same for every seed
// (instance seed 1), because Hopcroft-Karp's time on it swings by +-15%
// with the instance (288 to 431 ms over six seeds), a third of a pass's
// time. Passes alternate --threads 1 and 2 until the time budget is spent;
// a cell's latency is the median of its passes, scaled to the reference
// host speed by a HostProbe sampled before every timed solve. (The fastest
// pass was the less steady figure here: one cell's fastest of ten passes
// read 113 ms in one run and 158 ms in the next, the medians 164 and
// 163 ms.)
//
// The sizes keep every solve under half a second, so a run takes a dozen
// passes: at n=5000 and n=100k-200k a pass took 6 s and a set-up 5 s, a run
// held two or three samples per cell, and the Blossom and Hopcroft-Karp
// solves (the latter memory-bound, its time varying by a third from one
// minute to the next on a shared host) spread past the noise bound.
//
// No reduction scaffolding runs here: the time is in exact/ (Blossom
// post-processing, Hopcroft-Karp at scale), streaming/ and baselines/, with
// gen/ and graph/ in the set-up.
//
// The traced run replays rand_arr_matching and unweighted_random_arrival
// from their public steps (LocalRatio, WgtAugPaths, UnwThreeAugPaths,
// blossom_max_weight) with a clock around each, calls hopcroft_karp and the
// baselines directly, and checks every replay lands on the api::Solver
// matching.
#include <algorithm>
#include <cmath>

#include "api/api.h"
#include "baselines/greedy.h"
#include "baselines/local_ratio.h"
#include "common.h"
#include "core/rand_arr_matching.h"
#include "core/unweighted_random_arrival.h"
#include "core/unw_three_aug.h"
#include "core/wgt_aug_paths.h"
#include "exact/blossom.h"
#include "exact/hopcroft_karp.h"
#include "graph/augmentation.h"
#include "graph/graph.h"

namespace perfbench {

namespace {

using namespace wmatch;

/// Timed set-ups: one before the first pass, then one after each parallel
/// pass until there are this many, so they sample the whole run.
constexpr std::size_t kSetupReps = 5;
const char* const kFamilies[] = {"bipartite", "erdos_renyi"};
const char* const kOnePass[] = {"greedy", "local-ratio", "rand-arrival",
                                "unw-rand-arrival"};
const char* const kLargeSolvers[] = {"exact-hk", "greedy"};
constexpr std::uint64_t kLargeSeed = 1;  ///< the large graph's, every run

api::GenSpec small_spec(const char* family, std::uint64_t seed) {
  api::GenSpec spec;
  spec.generator = family;
  spec.n = 2000;
  spec.m = 10000;
  spec.seed = seed;
  return spec;
}

api::GenSpec large_spec() {
  api::GenSpec spec;
  spec.generator = "bipartite";
  spec.n = 50000;
  spec.m = 500000;
  spec.seed = kLargeSeed;
  return spec;
}

struct Input {
  api::GenSpec spec;
  api::Instance inst;
  Weight max_weight = -1;      ///< exact optimum (small graphs only)
  std::size_t max_card = 0;    ///< exact maximum cardinality (small only)
};

/// The two small graphs, then the large one; optima for the small ones.
std::vector<Input> set_up(std::uint64_t seed) {
  std::vector<Input> inputs;
  for (const char* family : kFamilies) {
    Input in;
    in.spec = small_spec(family, seed);
    in.inst = api::generate_instance(in.spec);
    in.max_weight = exact::blossom_max_weight(in.inst.graph).weight();
    if (in.inst.is_bipartite()) {
      in.max_card =
          exact::hopcroft_karp(in.inst.graph, in.inst.side).matching.size();
    } else {
      std::vector<Edge> unit(in.inst.graph.edges().begin(),
                             in.inst.graph.edges().end());
      for (Edge& e : unit) e.w = 1;
      in.max_card = exact::blossom_max_weight(
                        GraphView(Graph(in.inst.num_vertices(), unit)))
                        .size();
    }
    inputs.push_back(std::move(in));
  }
  Input large;
  large.spec = large_spec();
  large.inst = api::generate_instance(large.spec);
  inputs.push_back(std::move(large));
  return inputs;
}

struct Cell {
  std::size_t input;
  const char* solver;
};

/// Per-layer clocks of the traced run, summed over --threads=1 passes.
struct StreamLayers {
  double pass_ms = 0, feed_ms = 0, blossom_ms = 0, hk_ms = 0, hk_phases = 0;
  double replay_ms = 0, untraced_ms = 0;
  std::size_t passes = 0, feeds = 0, blossoms = 0;  ///< timed calls
};

/// rand_arr_matching from its public steps (Algorithm 2).
Matching replay_rand_arrival(const api::Instance& inst,
                             const api::SolverSpec& spec, StreamLayers& L) {
  const std::span<const Edge> stream = inst.stream;
  const std::size_t n = inst.num_vertices();
  core::RandArrConfig cfg;
  cfg.p = spec.knobs_or_default<api::RandomArrivalKnobs>().p;
  double p = cfg.p;
  if (p <= 0.0) {
    const double ln =
        std::log2(static_cast<double>(std::max<std::size_t>(n, 4)));
    p = std::min(0.5, 100.0 / (ln * 100.0));
  }
  const std::size_t prefix =
      static_cast<std::size_t>(p * static_cast<double>(stream.size()));
  Rng rng(spec.seed);

  std::uint64_t t0 = now_ns();
  baselines::LocalRatio lr(n);
  for (std::size_t i = 0; i < prefix; ++i) lr.feed(stream[i]);
  Matching m0 = lr.unwind();
  lr.freeze();
  std::vector<Edge> t_set;
  for (std::size_t i = prefix; i < stream.size(); ++i) {
    if (lr.feed(stream[i])) t_set.push_back(stream[i]);
  }
  L.pass_ms += ms_since(t0);
  ++L.passes;

  t0 = now_ns();
  core::WgtAugPaths wap(m0, cfg.wap, rng);
  for (std::size_t i = prefix; i < stream.size(); ++i) wap.feed(stream[i]);
  L.feed_ms += ms_since(t0);
  ++L.feeds;

  Matching m1(n);
  if (!t_set.empty()) {
    std::vector<Edge> residual;
    residual.reserve(t_set.size());
    for (const Edge& e : t_set) {
      residual.push_back(
          {e.u, e.v, e.w - lr.potential(e.u) - lr.potential(e.v)});
    }
    const GraphView t_view(Graph(n, residual));
    t0 = now_ns();
    const Matching residual_opt = exact::blossom_max_weight(t_view);
    L.blossom_ms += ms_since(t0);
    ++L.blossoms;
    for (const Edge& e : residual_opt.edges()) {
      m1.add(e.u, e.v, e.w + lr.potential(e.u) + lr.potential(e.v));
    }
  }
  lr.unwind_onto(m1);
  Matching m2 = wap.finalize();
  return m1.weight() >= m2.weight() ? m1 : m2;
}

/// unweighted_random_arrival from its public steps (three branches).
Matching replay_unw_rand_arrival(const api::Instance& inst,
                                 const api::SolverSpec& spec,
                                 StreamLayers& L) {
  const std::span<const Edge> stream = inst.stream;
  const std::size_t n = inst.num_vertices();
  const auto knobs = spec.knobs_or_default<api::RandomArrivalKnobs>();
  core::UnweightedRandomArrivalConfig cfg;
  if (knobs.p > 0.0) cfg.p = knobs.p;
  cfg.beta = knobs.beta;
  const std::size_t prefix =
      static_cast<std::size_t>(cfg.p * static_cast<double>(stream.size()));

  std::uint64_t t0 = now_ns();
  Matching m0(n);
  for (std::size_t i = 0; i < prefix; ++i) {
    baselines::greedy_extend(m0, stream[i]);
  }
  Matching m_prime = m0;
  std::vector<Edge> s1;
  for (std::size_t i = prefix; i < stream.size(); ++i) {
    const Edge& e = stream[i];
    if (!m0.is_matched(e.u) && !m0.is_matched(e.v)) s1.push_back(e);
    baselines::greedy_extend(m_prime, e);
  }
  L.pass_ms += ms_since(t0);
  ++L.passes;

  t0 = now_ns();
  core::UnwThreeAugPaths three_aug(m0, cfg.beta);
  for (std::size_t i = prefix; i < stream.size(); ++i) {
    three_aug.feed(stream[i]);
  }
  L.feed_ms += ms_since(t0);
  ++L.feeds;

  Matching branch1 = m0;
  if (!s1.empty()) {
    const GraphView s1_view(Graph(n, s1));
    t0 = now_ns();
    const Matching s1_opt = exact::blossom_max_weight(s1_view, true);
    L.blossom_ms += ms_since(t0);
    ++L.blossoms;
    for (const Edge& e : s1_opt.edges()) branch1.add(e);
  }
  Matching branch3 = m0;
  for (const auto& path : three_aug.extract()) {
    Augmentation aug;
    aug.edges = {path.left, path.mid, path.right};
    aug.apply(branch3);
  }
  const Matching* best = &branch1;
  if (m_prime.size() > best->size()) best = &m_prime;
  if (branch3.size() > best->size()) best = &branch3;
  return *best;
}

/// The traced counterpart of one cell at --threads=1.
Matching replay_cell(const std::string& solver, const api::Instance& inst,
                     const api::SolverSpec& spec, StreamLayers& L) {
  if (solver == "rand-arrival") return replay_rand_arrival(inst, spec, L);
  if (solver == "unw-rand-arrival") {
    return replay_unw_rand_arrival(inst, spec, L);
  }
  const std::uint64_t t0 = now_ns();
  if (solver == "exact-hk") {
    auto r = exact::hopcroft_karp(inst.graph, inst.side, 0, nullptr,
                                  spec.runtime);
    L.hk_ms += ms_since(t0);
    L.hk_phases += static_cast<double>(r.phases);
    return std::move(r.matching);
  }
  Matching m(inst.num_vertices());
  if (solver == "greedy") {
    m = baselines::greedy_stream_matching(inst.stream, inst.num_vertices());
  } else {
    baselines::LocalRatio lr(inst.num_vertices());
    for (const Edge& e : inst.stream) lr.feed(e);
    m = lr.unwind();
  }
  L.pass_ms += ms_since(t0);
  ++L.passes;
  return m;
}

}  // namespace

Report run_stream(const Options& opt) {
  Report report;
  report.workload = "stream";
  PassPacer pacer(opt.seconds);

  auto timed_set_up = [&](std::vector<double>& setup_s) {
    const std::uint64_t t0 = now_ns();
    std::vector<Input> inputs = set_up(opt.seed);
    setup_s.push_back(ms_since(t0) / 1e3);
    return inputs;
  };
  std::vector<double> setup_s;
  const std::vector<Input> inputs = timed_set_up(setup_s);
  const std::size_t large = inputs.size() - 1;

  std::vector<Cell> cells;
  for (std::size_t i = 0; i < large; ++i) {
    for (const char* solver : kOnePass) cells.push_back({i, solver});
  }
  for (const char* solver : kLargeSolvers) cells.push_back({large, solver});

  const std::size_t kThreads[] = {1, kParallelThreads};
  std::vector<std::vector<double>> wall_ms[2];  // [t][cell] -> samples
  for (auto& w : wall_ms) w.assign(cells.size(), {});
  std::size_t passes_run[2] = {0, 0};
  std::vector<Matching> first(cells.size());
  std::vector<bool> seen(cells.size(), false);
  StreamLayers layers;
  PoolUse pool;
  HostProbe probe;
  double ratio_min = 1.0;
  std::size_t hk_size = 0;

  for (std::size_t pass = 0; pacer.next(pass); ++pass) {
    const std::size_t ti = pass % 2;
    api::SolverSpec spec;
    spec.seed = opt.seed;
    spec.runtime.num_threads = kThreads[ti];
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Input& in = inputs[cells[c].input];
      const std::string solver = cells[c].solver;
      probe.sample();
      const PoolUse::Mark pool_mark = PoolUse::mark();
      const std::uint64_t t0 = now_ns();
      const api::SolveResult r = api::Solver(solver).solve(in.inst, spec);
      const double ms = ms_since(t0);
      if (ti == 1) pool.add(pool_mark, ms);
      ++report.attempted;
      wall_ms[ti][c].push_back(ms);

      const std::string where = solver + "/" + in.spec.generator + ": ";
      const std::string bad =
          check_matching(in.inst.graph, r.matching, r.matching.weight());
      if (!bad.empty()) report.fail(where + bad);
      if (seen[c] && r.matching.edges() != first[c].edges()) {
        report.fail(where + "matching differs between passes");
      }
      if (solver == "exact-hk") hk_size = r.matching.size();
      if (cells[c].input == large && solver == "greedy" &&
          2 * r.matching.size() < hk_size) {
        report.fail(where + "greedy below half the maximum cardinality");
      }
      if (!seen[c]) {
        seen[c] = true;
        first[c] = r.matching;
        if (in.max_weight > 0) {
          const bool cardinality = solver == "unw-rand-arrival";
          const double ratio =
              cardinality ? static_cast<double>(r.matching.size()) /
                                static_cast<double>(in.max_card)
                          : static_cast<double>(r.matching.weight()) /
                                static_cast<double>(in.max_weight);
          ratio_min = std::min(ratio_min, ratio);
        }
      }
      if (opt.trace && ti == 0) {
        const std::uint64_t r0 = now_ns();
        const Matching replayed = replay_cell(solver, in.inst, spec, layers);
        layers.replay_ms += ms_since(r0);
        layers.untraced_ms += ms;
        if (replayed.edges() != r.matching.edges()) {
          report.fail(where + "replay diverged from api::Solver");
        }
      }
    }
    ++passes_run[ti];
    if (ti == 1 && setup_s.size() < kSetupReps) timed_set_up(setup_s);
  }

  std::vector<double> cell_ms[2];
  for (std::size_t ti = 0; ti < 2; ++ti) {
    for (const std::vector<double>& samples : wall_ms[ti]) {
      cell_ms[ti].push_back(median(samples));
    }
  }
  closed_loop_metrics(cell_ms, probe, report);
  setup_metrics(setup_s, probe, report);
  report.e2e["weight_ratio.min"] = ratio_min;

  if (opt.trace) {
    const double passes = static_cast<double>(passes_run[0]);
    auto& L = report.layers;
    L["streaming.pass.ms"] = layers.pass_ms / passes;
    L["core.rand_arr.feed_ms"] = layers.feed_ms / passes;
    L["exact.blossom.ms"] = layers.blossom_ms / passes;
    L["exact.hk.ms"] = layers.hk_ms / passes;
    L["exact.hk.phases"] = layers.hk_phases / passes;
    for (const Input& in : inputs) {
      const GenTiming t = time_generation(in.spec, in.inst.graph);
      if (!t.same_graph) report.fail("replayed generator diverged");
      L["gen.ms"] += t.gen_ms;
      L["graph.freeze.ms"] += t.freeze_ms;
    }
    pool.report(report);
    L["trace.overhead_frac"] = layers.replay_ms / layers.untraced_ms - 1.0;
    report.table = {
        {"streaming.pass", L["streaming.pass.ms"], L["streaming.pass.ms"],
         static_cast<double>(layers.passes) / passes},
        {"core.rand_arr.feed", L["core.rand_arr.feed_ms"],
         L["core.rand_arr.feed_ms"], static_cast<double>(layers.feeds) / passes},
        {"exact.blossom", L["exact.blossom.ms"], L["exact.blossom.ms"],
         static_cast<double>(layers.blossoms) / passes},
        {"exact.hk", L["exact.hk.ms"], L["exact.hk.ms"], L["exact.hk.phases"]},
        {"gen", L["gen.ms"], L["gen.ms"], static_cast<double>(inputs.size())},
        {"graph.freeze", L["graph.freeze.ms"], L["graph.freeze.ms"],
         static_cast<double>(inputs.size())},
    };
  }
  return report;
}

}  // namespace perfbench
