#include "core/main_alg.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "streaming/memory_meter.h"
#include "util/require.h"

namespace wmatch::core {

namespace {

/// Geometric ladder of class weights covering every possible augmentation
/// weight: from just above the heaviest edge times the layer count down to
/// (roughly) the lightest edge.
std::vector<Weight> class_ladder(const GraphView& g,
                                 const ReductionConfig& cfg) {
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

}  // namespace

Weight improve_matching_once(const GraphView& g, Matching& m,
                             const ReductionConfig& cfg,
                             UnweightedMatcher& matcher, Rng& rng,
                             std::size_t* max_invocation_cost_out,
                             std::size_t* stored_words_out,
                             runtime::ArenaPool* arenas) {
  SingleClassOptions opts;
  opts.delta = cfg.effective_delta();
  opts.enable_cycles = cfg.enable_cycles;
  opts.parametrizations = cfg.parametrizations;
  opts.runtime = cfg.runtime;

  const std::vector<Weight> ladder = class_ladder(g, cfg);
  const std::size_t k = ladder.size();
  const std::size_t cost_before_max = matcher.max_invocation_cost();

  // Collect augmentations per class — genuinely in parallel now. One
  // master draw per round; every class derives its bipartition stream and
  // its fork seed from task_seed(round_base, class index), so the round is
  // a function of rng's state only, bit-identical for any thread count.
  const std::uint64_t round_base = rng.next();

  // Fork one sub-matcher per class (serially, in ladder order) so classes
  // never share accounting state while running concurrently; a matcher
  // that cannot fork is invoked serially instead. Each fork gets its own
  // per-slot Arena (reused round over round, reset by the caller at the
  // barrier) so the fork's solve-time scratch bumps a cursor instead of
  // hitting the heap — and arenas are never shared across classes, which
  // is what keeps the not-thread-safe Arena sound across class tasks.
  std::vector<std::unique_ptr<UnweightedMatcher>> subs(k);
  bool forked = true;
  for (std::size_t i = 0; i < k && forked; ++i) {
    subs[i] =
        matcher.fork_for_class(runtime::task_seed(round_base, 2 * i + 1),
                               arenas ? &arenas->arena(i) : nullptr);
    if (!subs[i]) forked = false;
  }

  std::vector<SingleClassResult> results(k);
  auto run_class = [&](std::size_t i, UnweightedMatcher& class_matcher) {
    obs::Span class_span("solver.class", static_cast<std::int64_t>(i));
    Rng class_rng(runtime::task_seed(round_base, 2 * i));
    results[i] = find_class_augmentations(g, m, ladder[i], cfg.tau, opts,
                                          class_matcher, class_rng);
  };
  if (forked) {
    // One pool task per class: the classes are where the round's
    // parallelism lives (the black-box solves inside them run below the
    // runtime's work cutoff, sequentially), so chunking them would only
    // pair classes up on one thread.
    runtime::pool_for(cfg.runtime).run_batch(
        k, [&](std::size_t i) { run_class(i, *subs[i]); });
    // Iteration barrier: fold the per-class sub-accounting back in ladder
    // order (sums / maxes — deterministic regardless of schedule).
    for (std::size_t i = 0; i < k; ++i) matcher.merge_class(*subs[i]);
  } else {
    for (std::size_t i = 0; i < k; ++i) run_class(i, matcher);
  }

  if (stored_words_out) {
    // Classes run simultaneously in the model, so the round stores the
    // sum of the per-class peaks.
    std::size_t words = 0;
    for (const SingleClassResult& r : results) words += r.stored_words_peak;
    *stored_words_out = words;
  }

  // Greedy conflict resolution: heaviest class first (ladder is already
  // descending), applying only augmentations that still have positive gain
  // and do not touch previously used vertices.
  std::vector<char> used(g.num_vertices(), 0);
  Weight gain_total = 0;
  for (const SingleClassResult& r : results) {
    for (const Augmentation& aug : r.augmentations) {
      std::vector<Vertex> touched = aug.touched_vertices(m);
      bool conflict = false;
      for (Vertex v : touched) {
        if (used[v]) {
          conflict = true;
          break;
        }
      }
      if (conflict) continue;
      if (!aug.is_valid_alternating(m)) continue;
      Weight gain = aug.gain(m);
      if (gain <= 0) continue;
      for (Vertex v : touched) used[v] = 1;
      Weight realized = aug.apply(m);
      WMATCH_ASSERT(realized == gain);
      gain_total += realized;
    }
  }

  if (max_invocation_cost_out) {
    *max_invocation_cost_out =
        std::max(matcher.max_invocation_cost(), cost_before_max);
  }
  return gain_total;
}

MainAlgResult maximum_weight_matching(const GraphView& g,
                                      const ReductionConfig& cfg,
                                      UnweightedMatcher& matcher, Rng& rng,
                                      const Matching* initial) {
  WMATCH_REQUIRE(cfg.epsilon > 0.0 && cfg.epsilon < 1.0, "epsilon in (0,1)");
  MainAlgResult result;
  result.matching = initial ? *initial : Matching(g.num_vertices());
  result.classes = class_ladder(g, cfg).size();

  std::size_t iters = cfg.max_iterations > 0
                          ? cfg.max_iterations
                          : static_cast<std::size_t>(
                                std::ceil(8.0 / cfg.epsilon));

  // Stored words across the whole run: the matching itself (one word per
  // vertex) persists; each round's per-class state is charged at the
  // barrier and released before the next round, so peak() is the honest
  // high-water mark.
  MemoryMeter meter;
  meter.add(g.num_vertices());

  // Rounds are randomized (fresh bipartition per class per round), so a
  // single empty round is weak evidence of convergence; stop only after
  // several consecutive stalls (or the eps-determined round budget).
  std::size_t stalls = 0;
  obs::Counter& round_counter = obs::counter("solver.rounds");
  // Per-class fork arenas, reused for the whole run: reset (not freed) at
  // each round barrier, so after the first round the forks' scratch state
  // is pure pointer bumps over warm chunks. Deliberately invisible to the
  // MemoryMeter accounting above — the meter charges the model's stored
  // words, not the host allocator's strategy.
  runtime::ArenaPool arenas;
  for (std::size_t it = 0; it < iters && stalls < cfg.stall_patience; ++it) {
    obs::Span round_span("solver.round", static_cast<std::int64_t>(it));
    round_counter.add();
    arenas.reset_all();  // round barrier: rewind, keep chunks
    std::size_t max_cost = 0;
    std::size_t round_words = 0;
    Weight gain = improve_matching_once(g, result.matching, cfg, matcher,
                                        rng, &max_cost, &round_words,
                                        &arenas);
    meter.add(round_words);
    meter.sub(round_words);
    ++result.iterations;
    result.total_gain += gain;
    // Parallel-composition charge: one iteration costs the heaviest
    // invocation plus O(1) orchestration.
    result.parallel_model_cost += max_cost + 1;
    stalls = gain == 0 ? stalls + 1 : 0;
  }

  result.bb_invocations = matcher.invocations();
  result.bb_total_cost = matcher.total_cost();
  result.memory_peak_words = meter.peak();
  return result;
}

}  // namespace wmatch::core
