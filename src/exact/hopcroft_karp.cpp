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

/// Chunk grains: BFS frontier expansion is cheap per vertex, speculative
/// DFS does real work per root. Grains affect wall clock only, never the
/// result (see the determinism argument in hopcroft_karp below). The
/// bitset frontier chunks over whole 64-vertex words, so its grain is in
/// words, not vertices.
constexpr std::size_t kBfsWordGrain = 2;
constexpr std::size_t kDfsGrain = 4;

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
  // (and reclaimed wholesale by its next reset()) — all allocated here on
  // the calling thread, before any parallel region, per the Arena
  // threading contract. The GraphView's CSR is immutable and read-shared,
  // so the parallel chunks below touch no lazily-built state (the old
  // serial adjacency pre-touch is gone with the lazy build itself).
  const runtime::ArenaAllocator<std::uint32_t> alloc32(scratch);
  const runtime::ArenaAllocator<char> alloc8(scratch);
  const runtime::ArenaAllocator<std::uint64_t> alloc64(scratch);

  // match_edge[v] = index of the matched edge at v, or kNoEdge; mate[v]
  // = its other endpoint, or kNoVertex, so no lookup touches the edge list.
  // mate is heap scratch, freed on return: arena scratch piles up over all
  // of a round's calls until the round barrier resets it, and mate would
  // add a third to it.
  runtime::ArenaVector<std::uint32_t> match_edge(n, kNoEdge, alloc32);
  std::vector<Vertex> mate(n, kNoVertex);
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
  // nested batch per BFS level and DFS batch costs more than it saves,
  // and its help-while-waiting would run sibling class tasks.
  runtime::ThreadPool& pool = runtime::pool_for_work(rt, g.num_edges());
  runtime::ArenaVector<std::uint32_t> dist(n, 0, alloc32);

  // Bitset-frontier words, allocated once for the whole invocation and
  // re-zeroed per phase (3 * ceil(n/64) words: frontier, next, claimed).
  runtime::ArenaVector<std::uint64_t> words(3 * util::bitset_words(n), 0,
                                            alloc64);
  auto bfs = [&]() -> bool {
    return bfs_layers(g, match_edge, mate, in_left, dist, pool, words);
  };

  // One DFS walk from `root` along the dist layering, shared by the
  // speculative and the retry path — they differ only in how they skip /
  // retire fruitless right vertices. `skip(u)` filters a right vertex
  // before it is considered; `mark_dead(u)` retires a matched right vertex
  // off the next layer, and `retire(frame)` runs when a frame's subtree is
  // exhausted (a subtree only moves to strictly larger dist values, so
  // fruitlessness is independent of the path prefix — and, against a
  // frozen snapshot, of the root as well). Returns the non-matching edges
  // of an augmenting path root -> free right vertex (empty if none).
  // `stack` is the caller's reusable frame buffer, empty between walks.
  // A frame's own dist and match_edge cannot change while it is on top of
  // the stack, so it reads them once per visit.
  struct Frame {
    Vertex v;              // left vertex being expanded
    std::size_t it;        // next incident-edge slot of v
    std::uint32_t entry;   // edge that entered v (kNoEdge for the root)
    Vertex entry_right;    // the right vertex `entry` leads to; v's mate
  };
  auto walk = [&](Vertex root, std::vector<Frame>& stack, auto&& skip,
                  auto&& mark_dead,
                  auto&& retire) -> std::vector<std::uint32_t> {
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
        if (skip(u)) continue;
        const Vertex w = mate[u];
        if (w == kNoVertex) {
          std::vector<std::uint32_t> path;
          path.reserve(stack.size());
          for (const Frame& fr : stack) {
            if (fr.entry != kNoEdge) path.push_back(fr.entry);
          }
          path.push_back(ei);
          stack.clear();
          return path;
        }
        if (dist[w] == target + 1) {
          ++f.it;  // resume after this edge when the subtree fails
          stack.push_back({w, 0, ei, u});
          descended = true;
          break;
        }
        mark_dead(u);  // matched off-layer: a dead end for this phase
      }
      if (descended) continue;
      if (f.entry != kNoEdge) retire(f);
      stack.pop_back();
    }
    return {};
  };

  // Speculative DFS against the frozen (dist, match_edge) snapshot of
  // this phase: mutates no shared state; fruitless right vertices are
  // memoized in the chunk's `dead` scratch. Because the snapshot is
  // identical for every root, the marks carry across the whole chunk —
  // pruned subtrees can never contribute path edges, so the candidate
  // found is the same with or without them, which both preserves the
  // thread-count invariance (chunking differs, results do not) and keeps
  // a phase's sequential work near the classic shared-pruning bound at
  // num_threads = 1 (one chunk = full cross-root memoization).
  // An exhausted frame's entry right vertex is fruitless everywhere.
  auto speculate = [&](Vertex root, std::vector<Frame>& stack,
                       std::vector<char>& dead) -> std::vector<std::uint32_t> {
    return walk(
        root, stack, [&](Vertex u) { return dead[u] != 0; },
        [&](Vertex u) { dead[u] = 1; },
        [&](const Frame& f) { dead[f.entry_right] = 1; });
  };

  // Serial fallback for roots whose speculative path conflicted with an
  // earlier commit: the classic live-state DFS, pruning globally through
  // dist (committed paths and exhausted subtrees are marked kInf, which is
  // sound because the per-phase search space only ever shrinks).
  // An exhausted frame retires `edge(entry).other(v)`. v is not an
  // endpoint of its entry edge, so that is the edge's `u` end: the right
  // vertex when the edge is stored (right, left), the parent left vertex
  // when it is stored (left, right). Retiring the parent gives it dist
  // kInf, so its frame's target wraps to 0, it finds no further edge and
  // retires its own parent in turn: the retry gives up after its first
  // fruitless descent. The committed matchings and phase counts depend on
  // this, so it stays until a change that may move them (see ROADMAP.md).
  std::vector<Frame> retry_stack;
  auto retry = [&](Vertex root) -> std::vector<std::uint32_t> {
    return walk(
        root, retry_stack, [](Vertex) { return false; },
        [&](Vertex u) { dist[u] = kInf; },
        [&](const Frame& f) { dist[g.edge(f.entry).other(f.v)] = kInf; });
  };

  // Flips the matching along the non-matching edges of an augmenting path
  // and retires its vertices from this phase (claimed + dist = kInf).
  runtime::ArenaVector<char> claimed(n, 0, alloc8);
  auto commit = [&](const std::vector<std::uint32_t>& path) {
    for (std::uint32_t ei : path) {
      const Edge& e = g.edge(ei);
      match_edge[e.u] = ei;
      match_edge[e.v] = ei;
      mate[e.u] = e.v;
      mate[e.v] = e.u;
      claimed[e.u] = claimed[e.v] = 1;
      dist[e.u] = dist[e.v] = kInf;
    }
  };

  std::size_t phases = 0;
  obs::Counter& phase_counter = obs::counter("hk.phases");
  while (max_phases == 0 || phases < max_phases) {
    // One phase under a span; the layering BFS and the batched DFS get
    // sub-spans of their own. Spans and the hk.phases counter observe the
    // loop without changing it (the loop structure is the old
    // `while (... && bfs())` unrolled so each part can be wrapped).
    obs::Span phase_span("hk.phase", static_cast<std::int64_t>(phases));
    bool layered;
    {
      obs::Span bfs_span("hk.bfs");
      layered = bfs();
    }
    if (!layered) break;
    // Batch the free roots: speculate candidate paths for all of them
    // concurrently against the phase-start snapshot, then commit serially
    // in root index order, falling back to a live serial DFS for roots
    // whose candidate touches an already-committed vertex. Speculation is
    // snapshot-pure and the commit/retry pass is sequential, so the phase
    // outcome is bit-identical for any thread count. Every free root is
    // meant to either augment or prove no disjoint path remains, making the
    // committed set maximal — the per-phase invariant Hopcroft-Karp's
    // bounds (and Fact 1.3) rely on — but the retire step of `retry`
    // above can end a retry early, so today a phase may stop short of
    // maximal.
    bool any = false;
    {
      obs::Span dfs_span("hk.dfs");
      std::vector<Vertex> roots;
      for (Vertex v = 0; v < n; ++v) {
        if (in_left[v] && match_edge[v] == kNoEdge && dist[v] == 0) {
          roots.push_back(v);
        }
      }
      std::vector<std::vector<std::uint32_t>> candidate(roots.size());
      runtime::parallel_for(
          pool, roots.size(), kDfsGrain, [&](std::size_t lo, std::size_t hi) {
            std::vector<char> dead(n, 0);  // shared across the chunk's roots
            std::vector<Frame> stack;
            for (std::size_t i = lo; i < hi; ++i) {
              candidate[i] = speculate(roots[i], stack, dead);
            }
          });

      std::fill(claimed.begin(), claimed.end(), 0);
      for (std::size_t i = 0; i < roots.size(); ++i) {
        const std::vector<std::uint32_t>& path = candidate[i];
        if (path.empty()) continue;  // no path in the (larger) snapshot space
        bool clean = true;
        for (std::uint32_t ei : path) {
          const Edge& e = g.edge(ei);
          if (claimed[e.u] || claimed[e.v]) {
            clean = false;
            break;
          }
        }
        if (!clean) {
          const std::vector<std::uint32_t> rerun = retry(roots[i]);
          if (rerun.empty()) continue;
          commit(rerun);
        } else {
          commit(path);
        }
        any = true;
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
