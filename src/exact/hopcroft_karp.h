// Hopcroft–Karp maximum-cardinality bipartite matching, with an optional
// phase limit.
//
// The phase-limited variant is this library's realization of the paper's
// `Unw-Bip-Matching` black box: after k phases the matching has no
// augmenting path shorter than 2k+1, so by Fact 1.3 it is a
// (1 - 1/(k+1))-approximate maximum matching. Running ceil(1/delta) phases
// therefore yields the (1-delta)-approximation Theorem 4.1 consumes, and
// each phase maps to O(1) passes in the streaming model / O(1) rounds of
// BFS+DFS in a distributed simulation. The bound needs every phase to be
// maximal, which hopcroft_karp's serial DFS guarantees.
#pragma once

#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "graph/matching.h"
#include "runtime/arena.h"
#include "runtime/runtime.h"

namespace wmatch::runtime {
class ThreadPool;
}  // namespace wmatch::runtime

namespace wmatch::exact {

struct HopcroftKarpResult {
  Matching matching;
  std::size_t phases = 0;  ///< phases actually executed
};

/// `side[v]` is 0 (left) or 1 (right); every edge must cross sides.
/// `max_phases == 0` means run to optimality.
/// `initial`, when provided, seeds the matching (must be valid in g and
/// respect the bipartition).
/// Each phase is the classic serial one: a BFS layering, then a live DFS
/// from every free left vertex in index order that commits a maximal set
/// of vertex-disjoint shortest augmenting paths. So after k phases no
/// augmenting path of fewer than 2k+1 edges remains (Fact 1.3).
/// `rt` selects the host threads for the per-phase BFS layer construction,
/// the only parallel part; a graph with fewer than
/// runtime::kParallelWorkCutoff edges runs sequentially whatever `rt`
/// says. The result (matching and phase count) is bit-identical for any
/// thread count and scratch arena.
/// `scratch`, when provided, backs the per-invocation O(n) scratch
/// (dist/match/mate/bitset words) and is rewound to its entry position on
/// return, so repeated invocations from a forked class matcher stop
/// hitting the heap and the arena holds only the largest call's scratch.
/// Allocations happen on the calling thread only.
HopcroftKarpResult hopcroft_karp(const GraphView& g,
                                 const std::vector<char>& side,
                                 std::size_t max_phases = 0,
                                 const Matching* initial = nullptr,
                                 const runtime::RuntimeConfig& rt = {},
                                 runtime::Arena* scratch = nullptr);

/// One level-synchronous BFS layering pass over alternating paths from
/// free left vertices: fills `dist` (kInf = unreached; free left roots 0,
/// claimed right vertices odd levels, their mates even) and returns
/// whether a free right vertex is reachable. `match_edge[v]` is the
/// incident matched edge id or UINT32_MAX. The frontier is word-parallel
/// (64 vertices per uint64_t, right vertices claimed with an atomic
/// fetch_or) and the labels are the same for any pool. Exposed so the
/// tests can check it against a plain serial BFS and bench_micro_kernels
/// can time it; hopcroft_karp() runs the same pass once per phase.
bool hk_bfs_layering(const GraphView& g,
                     std::span<const std::uint32_t> match_edge,
                     std::span<const char> in_left,
                     std::span<std::uint32_t> dist,
                     runtime::ThreadPool& pool,
                     runtime::Arena* scratch = nullptr);

/// Attempts a 2-coloring of g; returns empty vector if g is not bipartite.
std::vector<char> bipartition_of(const GraphView& g);

}  // namespace wmatch::exact
