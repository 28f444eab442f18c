#include "core/layered_graph.h"

#include <algorithm>

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
  out.free.resize(g.num_vertices());
  for (std::size_t v = 0; v < out.free.size(); ++v) {
    out.free[v] = !m.is_matched(static_cast<Vertex>(v));
  }
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

namespace {

/// The index key of group (tag_u, b, tag_v), each in [0, umax].
std::uint64_t group_key(int tag_u, int b, int tag_v, int umax) {
  const auto s = static_cast<std::uint64_t>(umax) + 1;
  return (static_cast<std::uint64_t>(tag_u) * s +
          static_cast<std::uint64_t>(b)) * s +
         static_cast<std::uint64_t>(tag_v);
}

}  // namespace

BucketedEdges bucket_edges(const CrossingEdges& edges, Weight unit, int umax) {
  WMATCH_REQUIRE(unit >= 1 && umax >= 1, "bad bucket parameters");
  BucketedEdges out;
  out.unit = unit;
  out.matched.assign(static_cast<std::size_t>(umax) + 1, {});
  out.unmatched.assign(static_cast<std::size_t>(umax) + 1, {});
  constexpr int kNoTag = -1;
  std::vector<int> tag(edges.free.size(), kNoTag);
  for (std::size_t v = 0; v < tag.size(); ++v) {
    if (edges.free[v]) tag[v] = 0;
  }
  out.mate.assign(edges.free.size(), kNoVertex);
  for (const Edge& e : edges.matched) {
    Weight units = (e.w + unit - 1) / unit;  // ceil: w in ((a-1)U, aU]
    if (units >= 1 && units <= umax) {
      out.matched[static_cast<std::size_t>(units)].push_back(e);
      tag[e.u] = tag[e.v] = static_cast<int>(units);
      out.mate[e.u] = e.v;
      out.mate[e.v] = e.u;
    }
  }
  for (const Edge& e : edges.unmatched) {
    Weight units = e.w / unit;  // floor: w in [bU, (b+1)U)
    if (units >= 1 && units <= umax) {
      out.unmatched[static_cast<std::size_t>(units)].push_back(e);
    }
  }

  // The gap index: key every indexable edge in bucket order, then a stable
  // sort groups them with bucket order kept inside each group.
  std::vector<std::pair<std::uint64_t, Edge>> keyed;
  for (std::size_t b = 1; b < out.unmatched.size(); ++b) {
    for (const Edge& e : out.unmatched[b]) {
      if (tag[e.u] == kNoTag || tag[e.v] == kNoTag) continue;
      keyed.emplace_back(
          group_key(tag[e.u], static_cast<int>(b), tag[e.v], umax), e);
    }
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  out.grouped.reserve(keyed.size());
  for (const auto& [key, e] : keyed) {
    if (out.group_keys.empty() || out.group_keys.back() != key) {
      out.group_keys.push_back(key);
      out.group_begin.push_back(static_cast<std::uint32_t>(out.grouped.size()));
    }
    out.grouped.push_back(e);
  }
  out.group_begin.push_back(static_cast<std::uint32_t>(out.grouped.size()));

  // The reach walk's side index: each group's endpoints sorted by u.
  out.by_u.reserve(out.grouped.size());
  for (const Edge& e : out.grouped) out.by_u.push_back({e.u, e.v});
  for (std::size_t i = 0; i + 1 < out.group_begin.size(); ++i) {
    std::sort(out.by_u.begin() + out.group_begin[i],
              out.by_u.begin() + out.group_begin[i + 1]);
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

std::size_t BucketedEdges::group_index(int tag_u, int b, int tag_v) const {
  const int umax = static_cast<int>(unmatched.size()) - 1;
  if (tag_u < 0 || tag_u > umax || b < 1 || b > umax || tag_v < 0 ||
      tag_v > umax) {
    return group_keys.size();
  }
  const std::uint64_t key = group_key(tag_u, b, tag_v, umax);
  const auto it = std::lower_bound(group_keys.begin(), group_keys.end(), key);
  if (it == group_keys.end() || *it != key) return group_keys.size();
  return static_cast<std::size_t>(it - group_keys.begin());
}

std::span<const Edge> BucketedEdges::gap(int tag_u, int b, int tag_v) const {
  const std::size_t i = group_index(tag_u, b, tag_v);
  if (i == group_keys.size()) return {};
  return {grouped.data() + group_begin[i], grouped.data() + group_begin[i + 1]};
}

namespace {

/// The tag a vertex must carry to be present at layer t of a k-gap pair:
/// tau_a[t], where tag 0 (M-free) counts only at the endpoint layers 0
/// and k; an intermediate tau_a of 0 admits no vertex (-1).
int layer_tag(std::span<const int> tau_a, std::size_t t) {
  const int a = tau_a[t];
  return a == 0 && t != 0 && t + 1 != tau_a.size() ? -1 : a;
}

}  // namespace

bool BucketedEdges::admits(std::span<const int> tau_a,
                           std::span<const int> tau_b) const {
  const int umax = static_cast<int>(matched.size()) - 1;
  // Fast reject: every layer with a positive threshold and every gap must
  // have candidate edges (an endpoint layer with tau_a > 0 only admits
  // X-matched vertices, so its bucket must be non-empty too).
  for (int a : tau_a) {
    if (a > umax) return false;
    if (a > 0 && matched[static_cast<std::size_t>(a)].empty()) return false;
  }
  for (int b : tau_b) {
    if (b < 1 || b > umax || unmatched[static_cast<std::size_t>(b)].empty()) {
      return false;
    }
  }

  // Gap t's edges (u in R at layer t, v in L at layer t+1), sorted by u.
  // An empty group anywhere cuts every path, so all are looked up first.
  steps_.clear();
  for (std::size_t t = 0; t < tau_b.size(); ++t) {
    const std::size_t i = group_index(layer_tag(tau_a, t), tau_b[t],
                                      layer_tag(tau_a, t + 1));
    if (i == group_keys.size()) return false;
    steps_.emplace_back(by_u.data() + group_begin[i],
                        by_u.data() + group_begin[i + 1]);
  }
  if (steps_.size() == 1) return true;

  // Each walked layer gets a fresh stamp value, so stamp_[v] == epoch_
  // means "v is already on the frontier being filled".
  if (stamp_.size() < mate.size()) stamp_.assign(mate.size(), 0);
  const auto reach = [&](std::span<const Arc> step) {
    for (const Arc& a : step) {
      if (stamp_[a.v] == epoch_) continue;
      stamp_[a.v] = epoch_;
      next_.push_back(a.v);
    }
  };
  const auto next_layer = [&] {
    std::swap(frontier_, next_);
    next_.clear();
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  };

  // Layer 1's L vertices: every v end of gap 0 (layer 0's vertices are
  // all M_L'-free).
  next_layer();
  reach(steps_[0]);
  for (std::size_t t = 1; t < steps_.size(); ++t) {
    next_layer();
    const std::span<const Arc> step = steps_[t];
    for (const Vertex l : frontier_) {
      // l's X edge leads to its mate r, the R vertex of layer t.
      const Vertex r = mate[l];
      const auto lo = std::lower_bound(
          step.begin(), step.end(), r,
          [](const Arc& a, Vertex u) { return a.u < u; });
      if (lo == step.end() || lo->u != r) continue;
      if (t + 1 == steps_.size()) return true;  // into the free last layer
      reach({lo, std::find_if(lo, step.end(),
                              [r](const Arc& a) { return a.u != r; })});
    }
    if (next_.empty()) return false;
  }
  return false;
}

std::optional<LayeredGraph> LayeredGraphBuilder::build(
    const BucketedEdges& edges, const Matching& /*m*/,
    const Parametrization& par, const TauPair& tau, std::size_t n,
    const runtime::RuntimeConfig& /*rt*/) {
  const std::size_t layers = tau.num_layers();
  WMATCH_REQUIRE(layers >= 2, "layered graph needs >= 2 layers");
  const std::size_t k = layers - 1;
  if (!edges.admits(tau.tau_a, tau.tau_b)) return std::nullopt;

  gaps_.clear();
  std::size_t between = 0;
  for (std::size_t t = 0; t < k; ++t) {
    gaps_.push_back(edges.gap(layer_tag(tau.tau_a, t), tau.tau_b[t],
                              layer_tag(tau.tau_a, t + 1)));
    between += gaps_.back().size();
  }

  // A new epoch invalidates every slot of the previous build at once.
  if (slots_.size() < layers * n) slots_.resize(layers * n);
  if (++epoch_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }

  auto x_edges = [&](std::size_t t) -> std::span<const Edge> {
    const int a = tau.tau_a[t];
    if (a <= 0) return {};
    return edges.matched[static_cast<std::size_t>(a)];
  };

  // Compress the (layer, vertex) pairs that occur on at least one edge, in
  // first-seen order over the intermediate X edges (first/last-layer
  // matched edges belong to L but are removed in L'), then the Y edges in
  // gap order.
  std::size_t x_count = 0;
  for (std::size_t t = 1; t < k; ++t) x_count += x_edges(t).size();
  LayeredGraph out;
  out.layers = layers;
  out.num_between_edges = between;
  out.original.reserve(2 * (x_count + between));
  out.layer_of.reserve(2 * (x_count + between));
  out.side.reserve(2 * (x_count + between));
  auto intern = [&](std::size_t t, Vertex v) {
    Slot& slot = slots_[t * n + v];
    if (slot.interned == epoch_) return;
    slot.interned = epoch_;
    slot.id = static_cast<std::uint32_t>(out.original.size());
    out.original.push_back(v);
    out.layer_of.push_back(static_cast<std::uint16_t>(t + 1));
    out.side.push_back(par[v]);
  };
  for (std::size_t t = 1; t < k; ++t) {
    for (const Edge& e : x_edges(t)) {
      intern(t, e.u);
      intern(t, e.v);
    }
  }
  for (std::size_t t = 0; t < k; ++t) {
    for (const Edge& e : gaps_[t]) {
      intern(t, e.u);
      intern(t + 1, e.v);
    }
  }

  auto id = [&](std::size_t t, Vertex v) { return slots_[t * n + v].id; };
  Graph lp(out.original.size());
  lp.reserve(x_count + between);
  Matching ml(out.original.size());
  for (std::size_t t = 1; t < k; ++t) {
    for (const Edge& e : x_edges(t)) {
      lp.add_edge(id(t, e.u), id(t, e.v), e.w);
      ml.add(id(t, e.u), id(t, e.v), e.w);
    }
  }
  for (std::size_t t = 0; t < k; ++t) {
    for (const Edge& e : gaps_[t]) lp.add_edge(id(t, e.u), id(t + 1, e.v), e.w);
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
