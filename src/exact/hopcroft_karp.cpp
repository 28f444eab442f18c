#include "exact/hopcroft_karp.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/bitset.h"
#include "util/require.h"

namespace wmatch::exact {

namespace {
constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoEdge = std::numeric_limits<std::uint32_t>::max();

/// BFS chunk grain, in whole 64-vertex frontier words. It affects wall
/// clock only, never the labels (see bfs_layers).
constexpr std::size_t kBfsWordGrain = 2;

struct BfsPart {
  bool free_right = false;
  bool any_next = false;
};

/// Word-parallel level-synchronous BFS from the free left vertices.
/// `mate[v]` is v's partner along `match_edge[v]` (kNoVertex when free).
/// The frontier and the claimed set pack 64 vertices per word; `words` holds
/// 3 * bitset_words(n) words (frontier, next, claimed). A right vertex is
/// claimed by an atomic fetch_or on its claimed bit; the claim winner is
/// the unique writer of dist[u] and of its mate's dist and frontier bit.
/// Every contender for a right vertex would write the same level value,
/// and a mate is reachable only through its unique matched partner, so
/// the dist labels (and the reachable-free-right flag) are independent of
/// chunking, schedule and thread count.
bool bfs_layers(const GraphView& g, std::span<const std::uint32_t> match_edge,
                std::span<const Vertex> mate, std::span<const char> in_left,
                std::span<std::uint32_t> dist,
                runtime::ThreadPool& pool, std::span<std::uint64_t> words) {
  const std::size_t nwords = words.size() / 3;
  std::span<std::uint64_t> cur = words.subspan(0, nwords);
  std::span<std::uint64_t> next = words.subspan(nwords, nwords);
  std::span<std::uint64_t> claimed = words.subspan(2 * nwords, nwords);
  std::fill(words.begin(), words.end(), 0);
  std::fill(dist.begin(), dist.end(), kInf);
  bool any = false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (in_left[v] && match_edge[v] == kNoEdge) {
      dist[v] = 0;
      util::bit_set(cur, v);
      any = true;
    }
  }
  bool reachable_free_right = false;
  std::uint32_t level = 0;
  while (any) {
    BfsPart round = runtime::parallel_reduce(
        pool, cur.size(), kBfsWordGrain, BfsPart{},
        [&](std::size_t lo, std::size_t hi) {
          BfsPart local;
          for (std::size_t w = lo; w < hi; ++w) {
            util::for_each_set_bit(
                cur[w], w * util::kBitsPerWord, [&](std::size_t vi) {
                  const Vertex v = static_cast<Vertex>(vi);
                  const auto ids = g.incident(v);
                  const auto nbrs = g.neighbors(v);
                  const std::uint32_t matched = match_edge[v];
                  for (std::size_t s = 0; s < ids.size(); ++s) {
                    if (ids[s] == matched) continue;
                    const Vertex u = nbrs[s];
                    if (!util::bit_test_and_set_atomic(claimed, u)) continue;
                    dist[u] = level + 1;  // claim winner: unique writer
                    const Vertex mw = mate[u];
                    if (mw == kNoVertex) {
                      local.free_right = true;
                    } else {
                      dist[mw] = level + 2;
                      util::bit_set_atomic(next, mw);
                      local.any_next = true;
                    }
                  }
                });
          }
          return local;
        },
        [](BfsPart acc, BfsPart part) {
          acc.free_right |= part.free_right;
          acc.any_next |= part.any_next;
          return acc;
        });
    reachable_free_right |= round.free_right;
    std::swap(cur, next);
    std::fill(next.begin(), next.end(), 0);
    any = round.any_next;
    level += 2;
  }
  return reachable_free_right;
}

}  // namespace

std::vector<char> bipartition_of(const GraphView& g) {
  std::vector<char> color(g.num_vertices(), -1);
  std::queue<Vertex> q;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (color[s] != -1) continue;
    color[s] = 0;
    q.push(s);
    while (!q.empty()) {
      Vertex v = q.front();
      q.pop();
      for (Vertex u : g.neighbors(v)) {
        if (color[u] == -1) {
          color[u] = static_cast<char>(1 - color[v]);
          q.push(u);
        } else if (color[u] == color[v]) {
          return {};
        }
      }
    }
  }
  return color;
}

bool hk_bfs_layering(const GraphView& g,
                     std::span<const std::uint32_t> match_edge,
                     std::span<const char> in_left,
                     std::span<std::uint32_t> dist,
                     runtime::ThreadPool& pool, runtime::Arena* scratch) {
  const runtime::ArenaRewind rewind(scratch);
  runtime::ArenaVector<std::uint64_t> words(
      3 * util::bitset_words(g.num_vertices()), 0,
      runtime::ArenaAllocator<std::uint64_t>(scratch));
  runtime::ArenaVector<Vertex> mate(g.num_vertices(), kNoVertex,
                                    runtime::ArenaAllocator<Vertex>(scratch));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (match_edge[v] != kNoEdge) mate[v] = g.edge(match_edge[v]).other(v);
  }
  return bfs_layers(g, match_edge, mate, in_left, dist, pool, words);
}

HopcroftKarpResult hopcroft_karp(const GraphView& g,
                                 const std::vector<char>& side,
                                 std::size_t max_phases,
                                 const Matching* initial,
                                 const runtime::RuntimeConfig& rt,
                                 runtime::Arena* scratch) {
  const std::size_t n = g.num_vertices();
  WMATCH_REQUIRE(side.size() == n, "side vector size mismatch");
  for (const Edge& e : g.edges()) {
    WMATCH_REQUIRE(side[e.u] != side[e.v], "edge within one side");
  }

  // Per-invocation O(n) scratch, carved from the arena when one is given
  // and handed back to it on return (so a class arena holds the largest
  // call's scratch, not the sum over a round) — all allocated here on the
  // calling thread, before any parallel region, per the Arena threading
  // contract.
  const runtime::ArenaRewind rewind(scratch);
  const runtime::ArenaAllocator<std::uint32_t> alloc32(scratch);
  const runtime::ArenaAllocator<char> alloc8(scratch);
  const runtime::ArenaAllocator<std::uint64_t> alloc64(scratch);

  // match_edge[v] = index of the matched edge at v, or kNoEdge; mate[v]
  // = its other endpoint, or kNoVertex, so no lookup touches the edge list.
  runtime::ArenaVector<std::uint32_t> match_edge(n, kNoEdge, alloc32);
  runtime::ArenaVector<Vertex> mate(n, kNoVertex, alloc32);
  if (initial) {
    WMATCH_REQUIRE(initial->num_vertices() == n, "initial matching size");
    for (const Edge& me : initial->edges()) {
      const auto nbrs = g.neighbors(me.u);
      const auto it = std::find(nbrs.begin(), nbrs.end(), me.v);
      WMATCH_REQUIRE(it != nbrs.end(), "initial matching edge not in graph");
      const std::uint32_t ei = g.incident(me.u)[it - nbrs.begin()];
      match_edge[me.u] = match_edge[me.v] = ei;
      mate[me.u] = me.v;
      mate[me.v] = me.u;
    }
  }

  runtime::ArenaVector<char> in_left(n, 0, alloc8);
  for (Vertex v = 0; v < n; ++v) in_left[v] = (side[v] == 0);

  // Small graphs (the reduction's layered graphs) solve sequentially: a
  // nested batch per BFS level costs more than it saves, and its
  // help-while-waiting would run sibling class tasks.
  runtime::ThreadPool& pool = runtime::pool_for_work(rt, g.num_edges());
  runtime::ArenaVector<std::uint32_t> dist(n, 0, alloc32);

  // Bitset-frontier words, allocated once for the whole invocation and
  // re-zeroed per phase (3 * ceil(n/64) words: frontier, next, claimed).
  runtime::ArenaVector<std::uint64_t> words(3 * util::bitset_words(n), 0,
                                            alloc64);

  // The classic live DFS from one free root along the dist layering. It
  // prunes globally through dist: a committed path's vertices, a matched
  // right vertex whose mate is off the next layer, and the entry right
  // vertex of an exhausted frame all get dist kInf. That is sound because
  // a phase's search space only shrinks and a subtree only moves to
  // strictly larger dist values, so a fruitless right vertex stays
  // fruitless for every later root of the phase. On reaching a free right
  // vertex it flips the matching along the path and returns true.
  // A frame's own dist and match_edge cannot change while it is on top of
  // the stack, so it reads them once per visit.
  struct Frame {
    Vertex v;              // left vertex being expanded
    std::size_t it;        // next incident-edge slot of v
    std::uint32_t entry;   // edge that entered v (kNoEdge for the root)
    Vertex entry_right;    // the right vertex `entry` leads to; v's mate
  };
  std::vector<Frame> stack;
  auto flip = [&](std::uint32_t ei) {
    const Edge& e = g.edge(ei);
    match_edge[e.u] = match_edge[e.v] = ei;
    mate[e.u] = e.v;
    mate[e.v] = e.u;
    dist[e.u] = dist[e.v] = kInf;
  };
  auto augment = [&](Vertex root) -> bool {
    stack.push_back({root, 0, kNoEdge, kNoVertex});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto inc = g.incident(f.v);
      const auto nbrs = g.neighbors(f.v);
      const std::uint32_t matched = match_edge[f.v];
      const std::uint32_t target = dist[f.v] + 1;
      bool descended = false;
      for (; f.it < inc.size(); ++f.it) {
        const std::uint32_t ei = inc[f.it];
        if (ei == matched) continue;
        const Vertex u = nbrs[f.it];
        if (dist[u] != target) continue;
        const Vertex w = mate[u];
        if (w == kNoVertex) {
          for (const Frame& fr : stack) {
            if (fr.entry != kNoEdge) flip(fr.entry);
          }
          flip(ei);
          stack.clear();
          return true;
        }
        if (dist[w] == target + 1) {
          ++f.it;  // resume after this edge when the subtree fails
          stack.push_back({w, 0, ei, u});
          descended = true;
          break;
        }
        dist[u] = kInf;  // matched off-layer: a dead end for this phase
      }
      if (descended) continue;
      if (f.entry != kNoEdge) dist[f.entry_right] = kInf;
      stack.pop_back();
    }
    return false;
  };

  std::size_t phases = 0;
  obs::Counter& phase_counter = obs::counter("hk.phases");
  while (max_phases == 0 || phases < max_phases) {
    // One phase under a span; the layering BFS and the DFS get sub-spans
    // of their own. Spans and the hk.phases counter observe the loop
    // without changing it.
    obs::Span phase_span("hk.phase", static_cast<std::int64_t>(phases));
    bool layered;
    {
      obs::Span bfs_span("hk.bfs");
      layered = bfs_layers(g, match_edge, mate, in_left, dist, pool, words);
    }
    if (!layered) break;
    // Every free left root, in index order, either augments along a
    // shortest path disjoint from the ones committed before it or proves
    // that none remains. The committed set is therefore a maximal set of
    // vertex-disjoint shortest augmenting paths: the per-phase invariant
    // behind Hopcroft-Karp's bounds and Fact 1.3. A root never loses its
    // dist 0 to another root's walk, so testing it on the fly is the same
    // as collecting the roots first.
    bool any = false;
    {
      obs::Span dfs_span("hk.dfs");
      for (Vertex v = 0; v < n; ++v) {
        if (in_left[v] && match_edge[v] == kNoEdge && dist[v] == 0) {
          any |= augment(v);
        }
      }
    }
    ++phases;
    phase_counter.add();
    if (!any) break;
  }

  Matching m(n);
  for (Vertex v = 0; v < n; ++v) {
    if (match_edge[v] != kNoEdge && v < mate[v]) {
      m.add(g.edge(match_edge[v]));
    }
  }
  return {std::move(m), phases};
}

}  // namespace wmatch::exact
