#include "mpc/mpc_matching.h"

#include <algorithm>
#include <cmath>

#include "exact/hopcroft_karp.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"

namespace wmatch::mpc {

MpcMatchingResult mpc_bipartite_matching(const GraphView& g,
                                         const std::vector<char>& side,
                                         double delta, MpcContext& ctx,
                                         Rng& rng) {
  WMATCH_REQUIRE(delta > 0.0 && delta < 1.0, "delta in (0,1)");
  const std::size_t n = g.num_vertices();
  const std::size_t start_rounds = ctx.rounds();
  const std::size_t gamma = ctx.config().num_machines;
  const std::size_t sample_budget =
      std::max<std::size_t>(1, ctx.config().machine_memory_words / 2);

  // All machine-local randomness derives from one master draw, keyed by
  // (round, machine) — never from the caller's stream — so the result is a
  // function of rng's state only, bit-identical for any thread count.
  const std::uint64_t master_seed = rng.next();

  // Round 0: the input is block-sharded across machines in stream order
  // (held for the duration of this invocation, released at the end).
  ctx.begin_round();
  const std::size_t per_machine = (g.num_edges() + gamma - 1) / gamma;
  std::vector<std::vector<Edge>> shard(gamma);
  {
    std::span<const Edge> edges = g.edges();
    for (std::size_t mach = 0; mach < gamma; ++mach) {
      const std::size_t lo = std::min(edges.size(), mach * per_machine);
      const std::size_t hi = std::min(edges.size(), lo + per_machine);
      shard[mach].assign(edges.begin() + lo, edges.begin() + hi);
      ctx.charge_memory(mach, per_machine);
    }
  }

  // --- Phase 1: maximal matching by filtering (LMSV11). Machines run
  // concurrently within each round; the coordinator (machine 0) steps
  // sequentially between the round barriers. ---
  Matching m(n);
  std::size_t active_total = g.num_edges();
  std::size_t filter_round = 0;
  while (active_total > 0) {
    // Rounds over small active sets run inline; the result does not
    // depend on which pool runs them, so the cutoff only moves wall clock.
    runtime::ThreadPool& round_pool =
        runtime::pool_for_work(ctx.config().runtime, active_total);
    // One round: every machine samples its shard and sends the sample to
    // the coordinator. (Scoped so the mpc.sample span closes before the
    // sibling mpc.filter span of the broadcast round opens.)
    const bool take_all = active_total <= sample_budget;
    {
      obs::Span sample_span("mpc.sample",
                            static_cast<std::int64_t>(filter_round));
      ctx.begin_round();
      const double p = take_all ? 1.0
                                : static_cast<double>(sample_budget) /
                                      static_cast<double>(active_total);
      std::vector<std::vector<Edge>> sample(gamma);
      runtime::parallel_for(round_pool, gamma, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t mach = lo; mach < hi; ++mach) {
          if (take_all) {
            sample[mach] = shard[mach];
          } else {
            Rng mrng(runtime::task_seed(master_seed,
                                        filter_round * gamma + mach));
            for (const Edge& e : shard[mach]) {
              if (mrng.next_bool(p)) sample[mach].push_back(e);
            }
          }
          ctx.charge_communication(sample[mach].size());
        }
      });
      std::size_t sample_count = 0;
      for (const auto& s : sample) sample_count += s.size();
      if (sample_count == 0) {
        // Degenerate case (tiny p): ship one deterministic representative so
        // the round always makes progress.
        for (std::size_t mach = 0; mach < gamma; ++mach) {
          if (!shard[mach].empty()) {
            sample[mach].push_back(shard[mach].front());
            ctx.charge_communication(1);
            sample_count = 1;
            break;
          }
        }
      }
      // Coordinator: greedy matching over the samples in machine order.
      ctx.charge_memory(0, sample_count);
      for (const auto& s : sample) {
        for (const Edge& e : s) {
          if (!m.is_matched(e.u) && !m.is_matched(e.v)) m.add(e);
        }
      }
      ctx.release_memory(0, sample_count);
    }

    // One round: broadcast the matching; machines drop dead edges in
    // parallel (the matching is read-only past this barrier).
    std::size_t next_total = 0;
    {
      obs::Span filter_span("mpc.filter",
                            static_cast<std::int64_t>(filter_round));
      ctx.begin_round();
      ctx.charge_communication(2 * m.size());
      runtime::parallel_for(round_pool, gamma, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t mach = lo; mach < hi; ++mach) {
          auto& sh = shard[mach];
          sh.erase(std::remove_if(sh.begin(), sh.end(),
                                  [&](const Edge& e) {
                                    return m.is_matched(e.u) ||
                                           m.is_matched(e.v);
                                  }),
                   sh.end());
        }
      });
      for (const auto& sh : shard) next_total += sh.size();
    }
    // If the whole active set fit into memory and did not shrink, the
    // matching is maximal and we are done.
    if (next_total == active_total && take_all) break;
    active_total = next_total;
    ++filter_round;
  }

  // --- Phase 2: remove short augmenting paths (Hopcroft–Karp phases). ---
  std::size_t phases = static_cast<std::size_t>(std::ceil(1.0 / delta));
  exact::HopcroftKarpResult hk = exact::hopcroft_karp(g, side, phases, &m);
  // Charge 2i+1 rounds for the phase that explores paths of length 2i+1.
  for (std::size_t i = 1; i <= hk.phases; ++i) {
    for (std::size_t r = 0; r < 2 * i + 1; ++r) ctx.begin_round();
  }
  // The matching (O(n) words) lives on the coordinator.
  ctx.charge_memory(0, hk.matching.size());
  ctx.release_memory(0, hk.matching.size());

  // This invocation is over; its input shards are dropped. (Conceptually
  // the reduction runs many instances in parallel, so the *aggregate*
  // per-machine footprint is this peak times an eps-dependent constant —
  // exactly the paper's Oe(n polylog n).)
  for (std::size_t mach = 0; mach < gamma; ++mach) {
    ctx.release_memory(mach, per_machine);
  }

  return {std::move(hk.matching), ctx.rounds() - start_rounds};
}

}  // namespace wmatch::mpc
