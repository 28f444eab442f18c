#include "core/layered_graph.h"

#include <algorithm>

#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"

namespace wmatch::core {

Parametrization random_parametrization(std::size_t n, Rng& rng) {
  Parametrization side(n);
  for (auto& s : side) s = rng.next_bool(0.5) ? 1 : 0;
  return side;
}

CrossingEdges crossing_edges(const GraphView& g, const Matching& m,
                             const Parametrization& par) {
  WMATCH_REQUIRE(par.size() == g.num_vertices(), "parametrization size");
  CrossingEdges out;
  for (const Edge& e : g.edges()) {
    if (par[e.u] == par[e.v]) continue;
    if (m.contains(e)) {
      // Orient u in L (side 0), v in R.
      Edge oriented = par[e.u] == 0 ? e : Edge{e.v, e.u, e.w};
      out.matched.push_back(oriented);
    } else {
      // Orient u in R, v in L (the direction Y edges travel).
      Edge oriented = par[e.u] == 1 ? e : Edge{e.v, e.u, e.w};
      out.unmatched.push_back(oriented);
    }
  }
  return out;
}

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax) {
  WMATCH_REQUIRE(unit >= 1 && umax >= 1, "bad bucket parameters");
  BucketedEdges out;
  out.unit = unit;
  out.matched.assign(static_cast<std::size_t>(umax) + 1, {});
  out.unmatched.assign(static_cast<std::size_t>(umax) + 1, {});
  for (const Edge& e : edges.matched) {
    Weight units = (e.w + unit - 1) / unit;  // ceil: w in ((a-1)U, aU]
    if (units >= 1 && units <= umax) {
      out.matched[static_cast<std::size_t>(units)].push_back(e);
    }
  }
  for (const Edge& e : edges.unmatched) {
    Weight units = e.w / unit;  // floor: w in [bU, (b+1)U)
    if (units >= 1 && units <= umax) {
      out.unmatched[static_cast<std::size_t>(units)].push_back(e);
    }
  }
  return out;
}

std::vector<int> BucketedEdges::matched_values() const {
  std::vector<int> out;
  for (std::size_t a = 1; a < matched.size(); ++a) {
    if (!matched[a].empty()) out.push_back(static_cast<int>(a));
  }
  return out;
}

std::vector<int> BucketedEdges::unmatched_values() const {
  std::vector<int> out;
  for (std::size_t b = 1; b < unmatched.size(); ++b) {
    if (!unmatched[b].empty()) out.push_back(static_cast<int>(b));
  }
  return out;
}

std::optional<LayeredGraph> LayeredGraphBuilder::build(
    const BucketedEdges& edges, const Matching& m, const Parametrization& par,
    const TauPair& tau, std::size_t n, const runtime::RuntimeConfig& rt) {
  const std::size_t layers = tau.num_layers();
  WMATCH_REQUIRE(layers >= 2, "layered graph needs >= 2 layers");
  const std::size_t k = layers - 1;
  const int umax = static_cast<int>(edges.matched.size()) - 1;

  // Fast reject: every layer with a positive threshold and every gap must
  // have candidate edges (an endpoint layer with tau_a > 0 only admits
  // X-matched vertices, so its bucket must be non-empty too).
  for (int a : tau.tau_a) {
    if (a > umax) return std::nullopt;
    if (a > 0 && edges.matched[static_cast<std::size_t>(a)].empty()) {
      return std::nullopt;
    }
  }
  for (int b : tau.tau_b) {
    if (b > umax || edges.unmatched[static_cast<std::size_t>(b)].empty()) {
      return std::nullopt;
    }
  }

  // A new epoch invalidates every slot of the previous build at once.
  if (slots_.size() < layers * n) slots_.resize(layers * n);
  if (++epoch_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }

  // Matched-vertex presence per layer.
  for (std::size_t t = 0; t < layers; ++t) {
    const int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      slots_[t * n + e.u].present = epoch_;
      slots_[t * n + e.v].present = epoch_;
    }
  }

  // Intermediate X edges (first/last-layer matched edges belong to L but
  // are removed in L').
  xedges_.clear();
  for (std::size_t t = 1; t + 1 < layers; ++t) {
    const int a = tau.tau_a[t];
    if (a <= 0) continue;
    for (const Edge& e : edges.matched[static_cast<std::size_t>(a)]) {
      xedges_.push_back({t, t, e.u, e.v, e.w});
    }
  }

  auto present = [&](std::size_t t, Vertex v) -> bool {
    if (slots_[t * n + v].present == epoch_) return true;
    if (t == 0) {
      return par[v] == 1 && !m.is_matched(v) && tau.tau_a[0] == 0;
    }
    if (t == k) {
      return par[v] == 0 && !m.is_matched(v) && tau.tau_a[k] == 0;
    }
    return false;  // intermediate layers require a kept matched edge
  };

  // Y edges between consecutive layers (u in R at t, v in L at t+1). The
  // gaps are independent and read-only over the presence slots, m and
  // par, so large builds filter them on the thread pool; per-gap results
  // are concatenated in gap order, which keeps the construction
  // schedule-independent. Small builds run inline — the output never
  // depends on the pool, only the wall clock does.
  auto filter_gaps = [&](std::size_t lo, std::size_t hi,
                         std::vector<RawEdge>& part) {
    for (std::size_t t = lo; t < hi; ++t) {
      const int b = tau.tau_b[t];
      for (const Edge& e : edges.unmatched[static_cast<std::size_t>(b)]) {
        if (!present(t, e.u) || !present(t + 1, e.v)) continue;
        part.push_back({t, t + 1, e.u, e.v, e.w});
      }
    }
  };
  std::size_t gap_work = 0;
  for (int b : tau.tau_b) {
    gap_work += edges.unmatched[static_cast<std::size_t>(b)].size();
  }
  yedges_.clear();
  if (gap_work >= runtime::kParallelWorkCutoff) {
    yedges_ = runtime::parallel_reduce(
        runtime::pool_for(rt), k, 1, std::vector<RawEdge>{},
        [&](std::size_t lo, std::size_t hi) {
          std::vector<RawEdge> part;
          filter_gaps(lo, hi, part);
          return part;
        },
        [](std::vector<RawEdge> acc, std::vector<RawEdge> part) {
          if (acc.empty()) return part;  // move, don't copy (single chunk)
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
  } else {
    filter_gaps(0, k, yedges_);
  }
  if (yedges_.empty()) return std::nullopt;

  // Compress the (layer, vertex) pairs that occur on at least one edge, in
  // first-seen order over the X edges, then the Y edges.
  LayeredGraph out;
  out.layers = layers;
  out.num_between_edges = yedges_.size();
  auto intern = [&](std::size_t t, Vertex v) {
    Slot& slot = slots_[t * n + v];
    if (slot.interned == epoch_) return;
    slot.interned = epoch_;
    slot.id = static_cast<std::uint32_t>(out.original.size());
    out.original.push_back(v);
    out.layer_of.push_back(static_cast<std::uint16_t>(t + 1));
    out.side.push_back(par[v]);
  };
  for (const std::vector<RawEdge>* part : {&xedges_, &yedges_}) {
    for (const RawEdge& e : *part) {
      intern(e.tu, e.u);
      intern(e.tv, e.v);
    }
  }

  Graph lp(out.original.size());
  Matching ml(out.original.size());
  for (const std::vector<RawEdge>* part : {&xedges_, &yedges_}) {
    const bool between = part == &yedges_;
    for (const RawEdge& e : *part) {
      const std::uint32_t cu = slots_[e.tu * n + e.u].id;
      const std::uint32_t cv = slots_[e.tv * n + e.v].id;
      lp.add_edge(cu, cv, e.w);
      if (!between) ml.add(cu, cv, e.w);
    }
  }
  // Freeze the compressed subgraph eagerly: the black box reads it from
  // parallel BFS/DFS chunks, which must never see a lazily-built index.
  out.lprime = GraphView(std::move(lp));
  out.ml = std::move(ml);
  return out;
}

LayeredGraph build_layered_graph(const BucketedEdges& edges,
                                 const Matching& m, const Parametrization& par,
                                 const TauPair& tau, std::size_t n,
                                 const runtime::RuntimeConfig& rt) {
  if (std::optional<LayeredGraph> lg =
          LayeredGraphBuilder().build(edges, m, par, tau, n, rt)) {
    return std::move(*lg);
  }
  LayeredGraph out;
  out.layers = tau.num_layers();
  return out;
}

}  // namespace wmatch::core
