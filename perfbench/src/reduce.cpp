// reduce workload: closed loop, one solve at a time, over the ci preset's
// reduction cells (reduction-hk and reduction-mpc at eps 0.2 on weighted
// bipartite and erdos_renyi graphs, n=200 m=800, instance and solver seed
// 1), alternating --threads 1 and 2 passes until the time budget is spent.
//
// The cells are the same for every workload seed: a reduction's round
// count swings between about 7 and 17 with the instance and solver seed,
// so a seed-drawn solve set would need some 25 solves per pass to get its
// run-to-run spread under the noise bound. The seed only orders the cells.
//
// Each cell is first solved once through api::Solver, whose counters are
// the ones checked against the ci baseline. A timed pass then runs every
// cell the way api/solvers.cpp does, through core::maximum_weight_matching's
// round loop, with a clock around each improve_matching_once; every run must
// land on the api::Solver counters. Rounds are deterministic, so a round's
// latency is its median over the passes and a cell's latency is the sum
// over its rounds: a solve takes 0.3-1.2 s and a run holds three or four
// passes, so a few slow seconds of the host move a few rounds, not a whole
// cell. Times are scaled to the reference host speed by a HostProbe
// sampled before every timed solve.
//
// The traced run replays maximum_weight_matching -> improve_matching_once
// -> find_class_augmentations from their public building blocks, with a
// clock around each call and a TimingMatcher around the black box, and
// checks the replay lands on the api::Solver result counter for counter.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "api/api.h"
#include "common.h"
#include "core/decompose.h"
#include "core/layered_graph.h"
#include "core/main_alg.h"
#include "core/single_class.h"
#include "core/tau.h"
#include "exact/blossom.h"
#include "graph/augmentation.h"
#include "mpc/mpc_context.h"
#include "runtime/arena.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "timing_matcher.h"

namespace perfbench {

namespace {

using namespace wmatch;

constexpr double kEpsilon = 0.2;
constexpr std::uint64_t kCellSeed = 1;
/// Timed set-ups after each pass. A process keeps one set-up speed for
/// seconds at a time (3.7 ms in one, 5.2 ms in the next, both steady), so
/// set-ups spread over the run rather than packed at its start.
constexpr int kSetupsPerPass = 2;
/// HostProbe samples before each timed solve (about 4 ms against a solve's
/// 0.3-1.2 s).
constexpr int kProbesPerCell = 3;
const char* const kFamilies[] = {"bipartite", "erdos_renyi"};
const char* const kSolvers[] = {"reduction-hk", "reduction-mpc"};

api::GenSpec gen_spec(const char* family) {
  api::GenSpec spec;
  spec.generator = family;
  spec.n = 200;
  spec.m = 800;
  spec.seed = kCellSeed;
  return spec;
}

api::SolverSpec solver_spec(std::size_t threads) {
  api::SolverSpec spec;
  spec.epsilon = kEpsilon;
  spec.seed = kCellSeed;
  spec.runtime.num_threads = threads;
  return spec;
}

struct Family {
  api::Instance inst;
  Weight optimum = 0;
};

struct Cell {
  std::size_t family;
  const char* solver;
};

/// The counters a solve must reproduce exactly (wall_ms excluded).
struct Counters {
  std::size_t passes = 0, rounds = 0, memory_peak_words = 0,
              communication_words = 0, bb_invocations = 0,
              bb_max_invocation_cost = 0, matching_size = 0;
  Weight matching_weight = 0;
  double iterations = 0, bb_total_cost = 0, sequential_rounds = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

Counters counters_of(const api::SolveResult& r) {
  return {r.cost.passes,
          r.cost.rounds,
          r.cost.memory_peak_words,
          r.cost.communication_words,
          r.cost.bb_invocations,
          r.cost.bb_max_invocation_cost,
          r.matching.size(),
          r.matching.weight(),
          r.stat("iterations"),
          r.stat("bb_total_cost"),
          r.stat("sequential_rounds")};
}

std::string cell_json(const Cell& cell, std::size_t threads,
                      const Counters& c) {
  std::ostringstream os;
  os << "{\"algorithm\":\"" << cell.solver << "\",\"generator\":\""
     << kFamilies[cell.family] << "\",\"seed\":" << kCellSeed
     << ",\"threads\":" << threads << ",\"counters\":{\"passes\":" << c.passes
     << ",\"rounds\":" << c.rounds
     << ",\"memory_peak_words\":" << c.memory_peak_words
     << ",\"communication_words\":" << c.communication_words
     << ",\"bb_invocations\":" << c.bb_invocations
     << ",\"bb_max_invocation_cost\":" << c.bb_max_invocation_cost
     << ",\"matching_size\":" << c.matching_size
     << ",\"matching_weight\":" << c.matching_weight << "}}";
  return os.str();
}

// ---- Per-layer replay of the reduction -------------------------------

/// Time and counts of one weight class in one round.
struct ClassClock {
  double total_ms = 0, bucket_ms = 0, tau_ms = 0, layered_ms = 0, bb_ms = 0,
         decompose_ms = 0, select_ms = 0;
  std::uint64_t pairs = 0, useful = 0;

  void add(const ClassClock& o) {
    total_ms += o.total_ms;
    bucket_ms += o.bucket_ms;
    tau_ms += o.tau_ms;
    layered_ms += o.layered_ms;
    bb_ms += o.bb_ms;
    decompose_ms += o.decompose_ms;
    select_ms += o.select_ms;
    pairs += o.pairs;
    useful += o.useful;
  }
};

/// Layer totals over every replayed solve of one thread count.
struct LayerTotals {
  ClassClock classes;
  double round_ms = 0, solve_ms = 0, imbalance_sum = 0;
  std::uint64_t rounds = 0, class_runs = 0, bb_calls = 0, mpc_rounds = 0;
};

/// Copy of main_alg.cpp's class_ladder (internal to the library).
std::vector<Weight> class_ladder(const GraphView& g,
                                 const core::ReductionConfig& cfg) {
  Weight max_w = g.max_weight();
  if (max_w <= 0) return {};
  Weight min_w = max_w;
  for (const Edge& e : g.edges()) min_w = std::min(min_w, e.w);
  double top = static_cast<double>(max_w) *
               static_cast<double>(cfg.tau.max_layers + 1);
  double bottom = std::max(1.0, static_cast<double>(min_w));
  std::vector<Weight> ladder;
  double w = top;
  while (w >= bottom && ladder.size() < cfg.max_classes) {
    ladder.push_back(static_cast<Weight>(std::llround(w)));
    w /= cfg.class_base;
  }
  return ladder;
}

/// find_class_augmentations from its public steps, timed per step.
std::vector<Augmentation> replay_class(const GraphView& g, const Matching& m,
                                       Weight w_class,
                                       const core::TauConfig& tau_cfg,
                                       const core::SingleClassOptions& opts,
                                       core::UnweightedMatcher& matcher,
                                       Rng& rng, ClassClock& clock) {
  const Weight unit = core::quantum(w_class, tau_cfg);
  const int umax = core::max_units(tau_cfg);
  std::vector<Augmentation> candidates;
  const std::size_t reps = std::max<std::size_t>(1, opts.parametrizations);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    core::Parametrization par =
        core::random_parametrization(g.num_vertices(), rng);
    std::uint64_t t0 = now_ns();
    core::CrossingEdges crossing = core::crossing_edges(g, m, par);
    if (crossing.unmatched.empty()) {
      clock.bucket_ms += ms_since(t0);
      continue;
    }
    core::BucketedEdges buckets = core::bucket_edges(crossing, unit, umax);
    clock.bucket_ms += ms_since(t0);

    t0 = now_ns();
    std::vector<core::TauPair> pairs =
        core::pairs_for_values(buckets.matched_values(),
                               buckets.unmatched_values(), tau_cfg, rng);
    clock.tau_ms += ms_since(t0);
    clock.pairs += pairs.size();

    for (const core::TauPair& pair : pairs) {
      t0 = now_ns();
      core::LayeredGraph lg = core::build_layered_graph(
          buckets, m, par, pair, g.num_vertices(), opts.runtime);
      clock.layered_ms += ms_since(t0);
      if (lg.num_between_edges == 0) continue;
      ++clock.useful;

      Matching mprime = matcher.solve(lg.lprime, lg.side, opts.delta);

      t0 = now_ns();
      for (Augmentation& comp :
           symmetric_difference_components(mprime, lg.ml)) {
        if (comp.is_cycle) continue;
        std::size_t in_mprime = 0;
        for (const Edge& e : comp.edges) {
          if (mprime.contains(e)) ++in_mprime;
        }
        if (2 * in_mprime <= comp.edges.size()) continue;
        std::vector<Edge> walk;
        walk.reserve(comp.edges.size());
        for (const Edge& e : comp.edges) {
          walk.push_back({lg.original[e.u], lg.original[e.v], e.w});
        }
        Augmentation best;
        Weight best_gain = 0;
        for (Augmentation& piece : core::decompose_walk(walk)) {
          if (!piece.is_valid_alternating(m)) continue;
          if (!opts.enable_cycles) {
            if (piece.is_cycle) continue;
            std::size_t on_path_matched = 0;
            for (const Edge& e : piece.edges) {
              if (m.contains(e)) ++on_path_matched;
            }
            if (piece.matching_neighborhood(m).size() != on_path_matched) {
              continue;
            }
          }
          Weight gain = piece.gain(m);
          if (gain > best_gain) {
            best_gain = gain;
            best = std::move(piece);
          }
        }
        if (best_gain > 0) candidates.push_back(std::move(best));
      }
      clock.decompose_ms += ms_since(t0);
    }
  }

  const std::uint64_t t0 = now_ns();
  std::vector<std::pair<Weight, std::size_t>> order;
  order.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    order.emplace_back(candidates[i].gain(m), i);
  }
  std::stable_sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    return x.first > y.first;
  });
  std::vector<Augmentation> sorted;
  sorted.reserve(candidates.size());
  for (const auto& [gain, idx] : order) {
    sorted.push_back(std::move(candidates[idx]));
  }
  std::vector<Augmentation> chosen;
  for (std::size_t idx : select_disjoint(sorted, m)) {
    chosen.push_back(std::move(sorted[idx]));
  }
  clock.select_ms += ms_since(t0);
  return chosen;
}

/// improve_matching_once from its public steps; per-class clocks land in
/// `clocks` (one per ladder slot).
Weight replay_round(const GraphView& g, Matching& m,
                    const core::ReductionConfig& cfg, TimingMatcher& matcher,
                    Rng& rng, std::size_t* max_cost_out,
                    runtime::ArenaPool& arenas,
                    std::vector<ClassClock>& clocks) {
  core::SingleClassOptions opts;
  opts.delta = cfg.effective_delta();
  opts.enable_cycles = cfg.enable_cycles;
  opts.parametrizations = cfg.parametrizations;
  opts.runtime = cfg.runtime;

  const std::vector<Weight> ladder = class_ladder(g, cfg);
  const std::size_t k = ladder.size();
  const std::size_t cost_before_max = matcher.max_invocation_cost();
  const std::uint64_t round_base = rng.next();

  std::vector<std::unique_ptr<core::UnweightedMatcher>> subs(k);
  for (std::size_t i = 0; i < k; ++i) {
    subs[i] = matcher.fork_for_class(runtime::task_seed(round_base, 2 * i + 1),
                                     &arenas.arena(i));
  }
  std::vector<std::vector<Augmentation>> results(k);
  clocks.assign(k, ClassClock{});
  runtime::parallel_for(
      runtime::pool_for(cfg.runtime), k, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint64_t t0 = now_ns();
          Rng class_rng(runtime::task_seed(round_base, 2 * i));
          results[i] = replay_class(g, m, ladder[i], cfg.tau, opts, *subs[i],
                                    class_rng, clocks[i]);
          clocks[i].total_ms = ms_since(t0);
        }
      });
  for (std::size_t i = 0; i < k; ++i) {
    clocks[i].bb_ms = static_cast<const TimingMatcher&>(*subs[i]).solve_ms();
    matcher.merge_class(*subs[i]);
  }

  std::vector<char> used(g.num_vertices(), 0);
  Weight gain_total = 0;
  for (const std::vector<Augmentation>& augs : results) {
    for (const Augmentation& aug : augs) {
      std::vector<Vertex> touched = aug.touched_vertices(m);
      bool conflict = false;
      for (Vertex v : touched) conflict = conflict || used[v];
      if (conflict || !aug.is_valid_alternating(m)) continue;
      const Weight gain = aug.gain(m);
      if (gain <= 0) continue;
      for (Vertex v : touched) used[v] = 1;
      gain_total += aug.apply(m);
    }
  }
  *max_cost_out = std::max(matcher.max_invocation_cost(), cost_before_max);
  return gain_total;
}

struct ReplayResult {
  Matching matching;
  std::size_t iterations = 0, parallel_model_cost = 0;
};

/// maximum_weight_matching from replay_round, with every round's clocks
/// folded into `totals`.
ReplayResult replay_solve(const GraphView& g, const core::ReductionConfig& cfg,
                          TimingMatcher& matcher, Rng& rng,
                          LayerTotals& totals) {
  ReplayResult out{Matching(g.num_vertices())};
  const std::size_t iters =
      cfg.max_iterations > 0
          ? cfg.max_iterations
          : static_cast<std::size_t>(std::ceil(8.0 / cfg.epsilon));
  std::size_t stalls = 0;
  runtime::ArenaPool arenas;
  std::vector<ClassClock> clocks;
  for (std::size_t it = 0; it < iters && stalls < cfg.stall_patience; ++it) {
    const std::uint64_t t0 = now_ns();
    arenas.reset_all();
    std::size_t max_cost = 0;
    const Weight gain = replay_round(g, out.matching, cfg, matcher, rng,
                                     &max_cost, arenas, clocks);
    totals.round_ms += ms_since(t0);
    ++totals.rounds;
    ++out.iterations;
    out.parallel_model_cost += max_cost + 1;
    stalls = gain == 0 ? stalls + 1 : 0;

    double slowest = 0, sum = 0;
    for (const ClassClock& c : clocks) {
      totals.classes.add(c);
      slowest = std::max(slowest, c.total_ms);
      sum += c.total_ms;
    }
    totals.class_runs += clocks.size();
    if (sum > 0) {
      totals.imbalance_sum +=
          slowest / (sum / static_cast<double>(clocks.size()));
    }
  }
  return out;
}

core::ReductionConfig reduction_config(const api::SolverSpec& spec) {
  core::ReductionConfig cfg;
  cfg.epsilon = spec.epsilon;
  cfg.delta = spec.delta;
  cfg.runtime = spec.runtime;
  return cfg;
}

/// The MPC cluster api/solvers.cpp sizes for an instance (paper regime).
mpc::MpcConfig mpc_config(const api::Instance& inst,
                          const api::SolverSpec& spec) {
  mpc::MpcConfig config;
  config.num_machines = std::max<std::size_t>(
      2, inst.num_edges() / std::max<std::size_t>(1, inst.num_vertices()));
  config.machine_memory_words = 24 * inst.num_vertices();
  config.runtime = spec.runtime;
  return config;
}

/// Replays one cell and checks it reproduces the untraced counters.
void replay_cell(const Cell& cell, const api::Instance& inst,
                 std::size_t threads, const Counters& expect,
                 LayerTotals& totals, Report& report) {
  const api::SolverSpec spec = solver_spec(threads);
  const core::ReductionConfig cfg = reduction_config(spec);
  Rng rng(spec.seed);
  const bool is_mpc = std::string(cell.solver) == "reduction-mpc";
  core::HkStreamingMatcher hk(spec.runtime);
  mpc::MpcContext ctx(mpc_config(inst, spec));
  core::MpcMatcher mpc_matcher(ctx, rng);
  TimingMatcher matcher(is_mpc ? static_cast<core::UnweightedMatcher&>(mpc_matcher)
                               : hk);
  const std::uint64_t t0 = now_ns();
  ReplayResult r = replay_solve(inst.graph, cfg, matcher, rng, totals);
  totals.solve_ms += ms_since(t0);
  totals.bb_calls += matcher.invocations();

  Counters got = expect;  // memory_peak_words is not replayed
  got.matching_size = r.matching.size();
  got.matching_weight = r.matching.weight();
  got.bb_invocations = matcher.invocations();
  got.bb_max_invocation_cost = matcher.max_invocation_cost();
  got.iterations = static_cast<double>(r.iterations);
  got.bb_total_cost = static_cast<double>(matcher.total_cost());
  if (is_mpc) {
    got.rounds = r.parallel_model_cost;
    got.communication_words = ctx.total_communication();
    got.sequential_rounds = static_cast<double>(ctx.rounds());
    totals.mpc_rounds += r.parallel_model_cost;
  } else {
    got.passes = r.parallel_model_cost;
  }
  if (!(got == expect)) {
    report.fail(std::string("replay of ") + cell.solver + "/" +
                kFamilies[cell.family] + " at threads " +
                std::to_string(threads) + " diverged from api::Solver");
  }
}

std::vector<Family> set_up() {
  std::vector<Family> families;
  for (const char* family : kFamilies) {
    Family f;
    f.inst = api::generate_instance(gen_spec(family));
    f.optimum = exact::blossom_max_weight(f.inst.graph).weight();
    families.push_back(std::move(f));
  }
  return families;
}

/// One solve of `cell` as api/solvers.cpp runs it: the round loop of
/// core::maximum_weight_matching, with a clock around each round (arena
/// reset + improve_matching_once). Appends round r's time to round_ms[r]
/// and returns the counters api::Solver reports for the same solve.
Counters timed_solve(const Cell& cell, const api::Instance& inst,
                     std::size_t threads,
                     std::vector<std::vector<double>>& round_ms,
                     Matching& matching) {
  const api::SolverSpec spec = solver_spec(threads);
  const core::ReductionConfig cfg = reduction_config(spec);
  const GraphView& g = inst.graph;
  Rng rng(spec.seed);
  const bool is_mpc = std::string(cell.solver) == "reduction-mpc";
  core::HkStreamingMatcher hk(spec.runtime);
  mpc::MpcContext ctx(mpc_config(inst, spec));
  core::MpcMatcher mpc_matcher(ctx, rng);
  core::UnweightedMatcher& matcher =
      is_mpc ? static_cast<core::UnweightedMatcher&>(mpc_matcher) : hk;

  matching = Matching(g.num_vertices());
  const std::size_t iters =
      cfg.max_iterations > 0
          ? cfg.max_iterations
          : static_cast<std::size_t>(std::ceil(8.0 / cfg.epsilon));
  runtime::ArenaPool arenas;
  std::size_t stalls = 0, rounds = 0, model_cost = 0, peak_round_words = 0;
  for (std::size_t it = 0; it < iters && stalls < cfg.stall_patience; ++it) {
    const std::uint64_t t0 = now_ns();
    arenas.reset_all();
    std::size_t max_cost = 0, round_words = 0;
    const Weight gain = core::improve_matching_once(
        g, matching, cfg, matcher, rng, &max_cost, &round_words, &arenas);
    const double ms = ms_since(t0);
    if (round_ms.size() <= it) round_ms.resize(it + 1);
    round_ms[it].push_back(ms);
    ++rounds;
    model_cost += max_cost + 1;
    peak_round_words = std::max(peak_round_words, round_words);
    stalls = gain == 0 ? stalls + 1 : 0;
  }

  Counters c;
  if (is_mpc) {
    c.rounds = model_cost;
    c.memory_peak_words = ctx.peak_machine_memory();
    c.communication_words = ctx.total_communication();
    c.sequential_rounds = static_cast<double>(ctx.rounds());
  } else {
    c.passes = model_cost;
    c.memory_peak_words = g.num_vertices() + peak_round_words;
  }
  c.bb_invocations = matcher.invocations();
  c.bb_max_invocation_cost = matcher.max_invocation_cost();
  c.matching_size = matching.size();
  c.matching_weight = matching.weight();
  c.iterations = static_cast<double>(rounds);
  c.bb_total_cost = static_cast<double>(matcher.total_cost());
  return c;
}

}  // namespace

void timing_matcher_selftest(Report& report) {
  const api::Instance inst = api::generate_instance(gen_spec("erdos_renyi"));
  for (const char* solver : kSolvers) {
    const bool is_mpc = std::string(solver) == "reduction-mpc";
    for (std::size_t threads : {1, 4}) {
      const api::SolverSpec spec = solver_spec(threads);
      const api::SolveResult plain = api::Solver(solver).solve(inst, spec);

      Rng rng(spec.seed);
      core::HkStreamingMatcher hk(spec.runtime);
      mpc::MpcContext ctx(mpc_config(inst, spec));
      core::MpcMatcher mpc_matcher(ctx, rng);
      TimingMatcher matcher(
          is_mpc ? static_cast<core::UnweightedMatcher&>(mpc_matcher) : hk);
      const core::MainAlgResult r = core::maximum_weight_matching(
          inst.graph, reduction_config(spec), matcher, rng);
      // The CostReport api/solvers.cpp would build from this run.
      api::CostReport cost;
      cost.bb_invocations = r.bb_invocations;
      cost.bb_max_invocation_cost = matcher.max_invocation_cost();
      if (is_mpc) {
        cost.rounds = r.parallel_model_cost;
        cost.memory_peak_words = ctx.peak_machine_memory();
        cost.communication_words = ctx.total_communication();
      } else {
        cost.passes = r.parallel_model_cost;
        cost.memory_peak_words = r.memory_peak_words;
      }
      const api::CostReport& want = plain.cost;
      const bool same =
          cost.passes == want.passes && cost.rounds == want.rounds &&
          cost.memory_peak_words == want.memory_peak_words &&
          cost.communication_words == want.communication_words &&
          cost.bb_invocations == want.bb_invocations &&
          cost.bb_max_invocation_cost == want.bb_max_invocation_cost &&
          r.matching.weight() == plain.matching.weight() &&
          r.matching.edges() == plain.matching.edges() &&
          matcher.total_cost() ==
              static_cast<std::size_t>(plain.stat("bb_total_cost")) &&
          matcher.solve_ms() > 0.0;
      ++report.attempted;
      if (!same) {
        report.fail(std::string("TimingMatcher changed the CostReport of ") +
                    solver + " at threads " + std::to_string(threads));
      }
    }
  }
}

Report run_reduce(const Options& opt) {
  Report report;
  report.workload = "reduce";
  PassPacer pacer(opt.seconds);

  auto timed_set_up = [](std::vector<double>& setup_s) {
    const std::uint64_t t0 = now_ns();
    std::vector<Family> families = set_up();
    setup_s.push_back(ms_since(t0) / 1e3);
    return families;
  };
  std::vector<double> setup_s;
  const std::vector<Family> families = timed_set_up(setup_s);

  std::vector<Cell> cells;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    for (const char* solver : kSolvers) cells.push_back({f, solver});
  }
  Rng(opt.seed).shuffle(cells);

  // The reference solves: api::Solver at --threads=1, checked against the
  // graph (and, by run.py, the ci baseline).
  std::vector<Counters> expect(cells.size());
  double ratio_min = 1.0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Family& fam = families[cells[c].family];
    const api::SolveResult r =
        api::Solver(cells[c].solver).solve(fam.inst, solver_spec(1));
    ++report.attempted;
    const std::string bad =
        check_matching(fam.inst.graph, r.matching, r.matching.weight());
    if (!bad.empty()) report.fail(std::string(cells[c].solver) + ": " + bad);
    expect[c] = counters_of(r);
    report.cells.push_back(cell_json(cells[c], 1, expect[c]));
    ratio_min = std::min(ratio_min,
                         static_cast<double>(expect[c].matching_weight) /
                             static_cast<double>(fam.optimum));
  }

  // Timed passes, alternating --threads 1 and kParallelThreads (and, when
  // tracing, a replay after each solve).
  const std::size_t kThreads[] = {1, kParallelThreads};
  // round_ms[t][cell][round] -> one sample per pass
  std::vector<std::vector<std::vector<double>>> round_ms[2];
  for (auto& r : round_ms) r.assign(cells.size(), {});
  std::size_t passes_run[2] = {0, 0};
  LayerTotals traced[2];
  double untraced_ms[2] = {0, 0};
  PoolUse pool;
  HostProbe probe;
  Matching m;
  for (std::size_t pass = 0; pacer.next(pass); ++pass) {
    const std::size_t ti = pass % 2;
    const std::size_t threads = kThreads[ti];
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Family& fam = families[cells[c].family];
      for (int k = 0; k < kProbesPerCell; ++k) probe.sample();
      const PoolUse::Mark pool_mark = PoolUse::mark();
      const std::uint64_t t0 = now_ns();
      const Counters got =
          timed_solve(cells[c], fam.inst, threads, round_ms[ti][c], m);
      const double ms = ms_since(t0);
      if (ti == 1) pool.add(pool_mark, ms);
      ++report.attempted;
      untraced_ms[ti] += ms;
      if (!(got == expect[c])) {
        report.fail(std::string(cells[c].solver) + "/" +
                    kFamilies[cells[c].family] + " at threads " +
                    std::to_string(threads) +
                    ": round loop counters differ from api::Solver");
      }
      const std::string bad = check_matching(fam.inst.graph, m, m.weight());
      if (!bad.empty()) report.fail(std::string(cells[c].solver) + ": " + bad);
      if (opt.trace) {
        replay_cell(cells[c], fam.inst, threads, got, traced[ti], report);
      }
    }
    ++passes_run[ti];
    for (int rep = 0; rep < kSetupsPerPass; ++rep) timed_set_up(setup_s);
  }

  std::vector<double> cell_ms[2];
  for (std::size_t ti = 0; ti < 2; ++ti) {
    for (const auto& rounds : round_ms[ti]) {
      double sum = 0;
      for (const std::vector<double>& samples : rounds) sum += median(samples);
      cell_ms[ti].push_back(sum);
    }
  }
  closed_loop_metrics(cell_ms, probe, report);
  setup_metrics(setup_s, probe, report);
  report.e2e["weight_ratio.min"] = ratio_min;

  if (opt.trace) {
    for (const Family& fam : families) {
      const GenTiming t = time_generation(
          gen_spec(fam.inst.name.c_str()), fam.inst.graph);
      if (!t.same_graph) report.fail("replayed generator diverged");
      report.layers["gen.ms"] += t.gen_ms;
      report.layers["graph.freeze.ms"] += t.freeze_ms;
    }
    timing_matcher_selftest(report);

    // Layer times and counts per --threads=1 pass (self times add up
    // there); the class imbalance from the parallel replays, where a round
    // waits for its slowest class.
    const double passes = static_cast<double>(passes_run[0]);
    const LayerTotals& t = traced[0];
    const ClassClock& c = t.classes;
    const double children = c.bucket_ms + c.tau_ms + c.layered_ms + c.bb_ms +
                            c.decompose_ms + c.select_ms;
    auto per_pass = [&](double x) { return x / passes; };
    auto& L = report.layers;
    L["core.tau.pairs"] = per_pass(c.pairs);
    L["core.tau.ms"] = per_pass(c.tau_ms);
    L["core.layered.builds"] = per_pass(c.pairs);
    L["core.layered.useful_frac"] =
        c.pairs ? static_cast<double>(c.useful) / static_cast<double>(c.pairs)
                : 0.0;
    L["core.layered.ms"] = per_pass(c.layered_ms);
    L["core.bucket.ms"] = per_pass(c.bucket_ms);
    L["core.decompose.ms"] = per_pass(c.decompose_ms);
    L["core.select.ms"] = per_pass(c.select_ms);
    L["core.class.ms"] = per_pass(c.total_ms);
    L["core.class.unattributed_frac"] =
        c.total_ms > 0 ? std::max(0.0, c.total_ms - children) / c.total_ms : 0;
    L["core.rounds"] = per_pass(t.rounds);
    L["core.round.ms"] = per_pass(t.round_ms);
    L["runtime.class_imbalance"] =
        traced[1].rounds ? traced[1].imbalance_sum /
                               static_cast<double>(traced[1].rounds)
                         : 0.0;
    L["bb.calls"] = per_pass(t.bb_calls);
    L["bb.ms"] = per_pass(c.bb_ms);
    L["bb.share"] = t.solve_ms > 0 ? c.bb_ms / t.solve_ms : 0.0;
    L["mpc.rounds"] = per_pass(t.mpc_rounds);
    double comm = 0, bb_calls = 0, rounds = 0, mpc_rounds = 0;
    for (const Counters& k : expect) {
      comm += static_cast<double>(k.communication_words);
      bb_calls += static_cast<double>(k.bb_invocations);
      rounds += k.iterations;
      mpc_rounds += static_cast<double>(k.rounds);
    }
    L["mpc.comm_words"] = comm;
    pool.report(report);
    L["trace.overhead_frac"] = t.solve_ms / untraced_ms[0] - 1.0;

    // Traced counts against the untraced run's (per --threads=1 pass).
    report.counts["bb.calls"] = {L["bb.calls"], bb_calls};
    report.counts["core.rounds"] = {L["core.rounds"], rounds};
    report.counts["mpc.rounds"] = {L["mpc.rounds"], mpc_rounds};
    report.counts["core.layered.useful"] = {per_pass(c.useful), bb_calls};
    report.counts["core.layered.builds@t2"] = {
        L["core.layered.builds"],
        static_cast<double>(traced[1].classes.pairs) /
            static_cast<double>(passes_run[1])};

    report.table = {
        {"core.round", per_pass(t.round_ms - c.total_ms), per_pass(t.round_ms),
         per_pass(t.rounds)},
        {"core.class", per_pass(c.total_ms - children), per_pass(c.total_ms),
         per_pass(t.class_runs)},
        {"core.bucket", per_pass(c.bucket_ms), per_pass(c.bucket_ms),
         per_pass(t.class_runs)},
        {"core.tau", per_pass(c.tau_ms), per_pass(c.tau_ms), per_pass(c.pairs)},
        {"core.layered", per_pass(c.layered_ms), per_pass(c.layered_ms),
         per_pass(c.pairs)},
        {"bb", per_pass(c.bb_ms), per_pass(c.bb_ms), per_pass(t.bb_calls)},
        {"core.decompose", per_pass(c.decompose_ms), per_pass(c.decompose_ms),
         per_pass(c.useful)},
        {"core.select", per_pass(c.select_ms), per_pass(c.select_ms),
         per_pass(t.class_runs)},
    };
  }
  return report;
}

}  // namespace perfbench
