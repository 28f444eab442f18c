#include "exact/blossom.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "util/require.h"

namespace wmatch::exact {

namespace {

// Internal solver state. Indices follow the original implementation:
// vertices are 0..nv-1, blossoms nv..2*nv-1, "endpoints" are 2*edge+side.
// Vertices are the input's non-isolated vertices, relabelled in order.
class BlossomSolver {
 public:
  BlossomSolver(const GraphView& g, bool max_cardinality)
      : g_(g), maxcard_(max_cardinality), ne_(static_cast<int>(g.num_edges())) {
    // Order-preserving relabel that drops isolated vertices: they are
    // never scanned, and a free vertex always holds the minimum vertex
    // dual, so the delta candidates and their order are unchanged.
    std::vector<int> id(g.num_vertices(), -1);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) == 0) continue;
      id[v] = static_cast<int>(orig_.size());
      orig_.push_back(v);
    }
    nv_ = static_cast<int>(orig_.size());

    edges_.reserve(ne_);
    endpoint_.resize(2 * ne_);
    Weight maxweight = 0;
    for (const Edge& e : g.edges()) {
      // Weights doubled so dual variables stay integral.
      const IEdge ie{id[e.u], id[e.v], 2 * e.w};
      endpoint_[2 * edges_.size()] = ie.i;
      endpoint_[2 * edges_.size() + 1] = ie.j;
      maxweight = std::max(maxweight, ie.w);
      edges_.push_back(ie);
    }

    // Flat adjacency in GraphView's ascending edge-id slot order, so a
    // scan computes slack without touching the edge list.
    offset_.resize(nv_ + 1, 0);
    slots_.reserve(2 * ne_);
    for (int v = 0; v < nv_; ++v) {
      const auto ids = g.incident(orig_[v]);
      const auto nbrs = g.neighbors(orig_[v]);
      for (std::size_t s = 0; s < ids.size(); ++s) {
        const int k = static_cast<int>(ids[s]);
        slots_.push_back({edges_[k].i == v ? 2 * k + 1 : 2 * k, id[nbrs[s]],
                          2 * edges_[k].w});
      }
      offset_[v + 1] = static_cast<int>(slots_.size());
    }

    mate_.assign(nv_, -1);
    label_.assign(2 * nv_, 0);
    labelend_.assign(2 * nv_, -1);
    inblossom_.resize(nv_);
    for (int v = 0; v < nv_; ++v) inblossom_[v] = v;
    blossomparent_.assign(2 * nv_, -1);
    blossomchilds_.assign(2 * nv_, {});
    blossombase_.assign(2 * nv_, -1);
    for (int v = 0; v < nv_; ++v) blossombase_[v] = v;
    blossomendps_.assign(2 * nv_, {});
    bestedge_.assign(2 * nv_, -1);
    blossombestedges_.assign(2 * nv_, {});
    has_bestedges_.assign(2 * nv_, false);
    for (int b = 2 * nv_ - 1; b >= nv_; --b) unusedblossoms_.push_back(b);
    top_ = nv_;
    dualvar_.assign(2 * nv_, 0);
    for (int v = 0; v < nv_; ++v) dualvar_[v] = maxweight;
    allowedge_.assign(ne_, false);
    bestedgeto_.assign(2 * nv_, -1);
    bestslack_.assign(nv_, 0);
    bestslack_epoch_.assign(nv_, 0);
  }

  Matching solve() {
    if (ne_ > 0) main_loop();
    Matching m(g_.num_vertices());
    for (int v = 0; v < nv_; ++v) {
      if (mate_[v] >= 0) {
        int p = mate_[v];
        int w = endpoint_[p];
        if (v < w) m.add(g_.edge(static_cast<std::size_t>(p / 2)));
      }
    }
    return m;
  }

 private:
  struct IEdge {
    int i, j;
    Weight w;
  };

  /// One incident edge of a vertex v.
  struct Slot {
    int p;             ///< endpoint at the neighbour: 2k+1 at edge k's i end
    int w;             ///< the neighbour
    Weight twice_w;    ///< 2 * doubled weight: slack = dv + dw - twice_w
  };

  Weight slack(int k) const {
    return dualvar_[edges_[k].i] + dualvar_[edges_[k].j] - 2 * edges_[k].w;
  }

  /// slack(bestedge_[v]) for a vertex v with a best edge.
  Weight best_slack(int v) const {
    return bestslack_epoch_[v] == dual_epoch_ ? bestslack_[v]
                                              : slack(bestedge_[v]);
  }

  /// Calls f(leaf) for every vertex of blossom b, in child order.
  template <typename F>
  void for_each_leaf(int b, F&& f) const {
    if (b < nv_) {
      f(b);
    } else {
      for (int t : blossomchilds_[b]) for_each_leaf(t, f);
    }
  }

  void assign_label(int w, int t, int p) {
    int b = inblossom_[w];
    WMATCH_ASSERT(label_[w] == 0 && label_[b] == 0);
    label_[w] = label_[b] = t;
    labelend_[w] = labelend_[b] = p;
    bestedge_[w] = bestedge_[b] = -1;
    if (t == 1) {
      for_each_leaf(b, [&](int lv) { queue_.push_back(lv); });
    } else if (t == 2) {
      int base = blossombase_[b];
      WMATCH_ASSERT(mate_[base] >= 0);
      assign_label(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
    }
  }

  int scan_blossom(int v, int w) {
    path_.clear();
    int base = -1;
    while (v != -1 || w != -1) {
      int b = inblossom_[v];
      if (label_[b] & 4) {
        base = blossombase_[b];
        break;
      }
      WMATCH_ASSERT(label_[b] == 1);
      path_.push_back(b);
      label_[b] = 5;
      WMATCH_ASSERT(labelend_[b] == mate_[blossombase_[b]]);
      if (labelend_[b] == -1) {
        v = -1;
      } else {
        v = endpoint_[labelend_[b]];
        b = inblossom_[v];
        WMATCH_ASSERT(label_[b] == 2);
        WMATCH_ASSERT(labelend_[b] >= 0);
        v = endpoint_[labelend_[b]];
      }
      if (w != -1) std::swap(v, w);
    }
    for (int b : path_) label_[b] = 1;
    return base;
  }

  void add_blossom(int base, int k) {
    int v = edges_[k].i;
    int w = edges_[k].j;
    int bb = inblossom_[base];
    int bv = inblossom_[v];
    int bw = inblossom_[w];
    WMATCH_ASSERT(!unusedblossoms_.empty());
    int b = unusedblossoms_.back();
    unusedblossoms_.pop_back();
    top_ = std::max(top_, b + 1);
    blossombase_[b] = base;
    blossomparent_[b] = -1;
    blossomparent_[bb] = b;
    // Built in place: an unused blossom's lists are empty but keep their
    // capacity.
    std::vector<int>& path = blossomchilds_[b];
    std::vector<int>& endps = blossomendps_[b];
    // Trace from v back to the base.
    while (bv != bb) {
      blossomparent_[bv] = b;
      path.push_back(bv);
      endps.push_back(labelend_[bv]);
      WMATCH_ASSERT(label_[bv] == 2 ||
                    (label_[bv] == 1 &&
                     labelend_[bv] == mate_[blossombase_[bv]]));
      WMATCH_ASSERT(labelend_[bv] >= 0);
      v = endpoint_[labelend_[bv]];
      bv = inblossom_[v];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(2 * k);
    // Trace from w back to the base.
    while (bw != bb) {
      blossomparent_[bw] = b;
      path.push_back(bw);
      endps.push_back(labelend_[bw] ^ 1);
      WMATCH_ASSERT(label_[bw] == 2 ||
                    (label_[bw] == 1 &&
                     labelend_[bw] == mate_[blossombase_[bw]]));
      WMATCH_ASSERT(labelend_[bw] >= 0);
      w = endpoint_[labelend_[bw]];
      bw = inblossom_[w];
    }
    WMATCH_ASSERT(label_[bb] == 1);
    label_[b] = 1;
    labelend_[b] = labelend_[bb];
    dualvar_[b] = 0;
    for_each_leaf(b, [&](int lv) {
      if (label_[inblossom_[lv]] == 2) queue_.push_back(lv);
      inblossom_[lv] = b;
    });
    // Compute best edges to neighbouring S-blossoms. bestedgeto_ is all
    // -1 between calls; touched_ lists the entries this call sets.
    auto consider = [&](int ek) {
      int i = edges_[ek].i;
      int j = edges_[ek].j;
      if (inblossom_[j] == b) std::swap(i, j);
      int bj = inblossom_[j];
      if (bj != b && label_[bj] == 1 &&
          (bestedgeto_[bj] == -1 || slack(ek) < slack(bestedgeto_[bj]))) {
        if (bestedgeto_[bj] == -1) touched_.push_back(bj);
        bestedgeto_[bj] = ek;
      }
    };
    for (int child : blossomchilds_[b]) {
      if (!has_bestedges_[child]) {
        for_each_leaf(child, [&](int lv) {
          for (int s = offset_[lv]; s < offset_[lv + 1]; ++s) {
            consider(slots_[s].p / 2);
          }
        });
      } else {
        for (int ek : blossombestedges_[child]) consider(ek);
      }
      blossombestedges_[child].clear();
      has_bestedges_[child] = false;
      bestedge_[child] = -1;
    }
    // Emit in ascending blossom order, as a scan of the whole array would.
    std::sort(touched_.begin(), touched_.end());
    blossombestedges_[b].clear();
    for (int bj : touched_) {
      blossombestedges_[b].push_back(bestedgeto_[bj]);
      bestedgeto_[bj] = -1;
    }
    touched_.clear();
    has_bestedges_[b] = true;
    bestedge_[b] = -1;
    for (int ek : blossombestedges_[b]) {
      if (bestedge_[b] == -1 || slack(ek) < slack(bestedge_[b])) {
        bestedge_[b] = ek;
      }
    }
  }

  /// The first vertex of blossom b (in child order) with a nonzero label,
  /// or -1.
  int first_labelled_leaf(int b) const {
    if (b < nv_) return label_[b] != 0 ? b : -1;
    for (int t : blossomchilds_[b]) {
      const int lv = first_labelled_leaf(t);
      if (lv != -1) return lv;
    }
    return -1;
  }

  void expand_blossom(int b, bool endstage) {
    for (int s : blossomchilds_[b]) {
      blossomparent_[s] = -1;
      if (s < nv_) {
        inblossom_[s] = s;
      } else if (endstage && dualvar_[s] == 0) {
        expand_blossom(s, endstage);
      } else {
        for_each_leaf(s, [&](int lv) { inblossom_[lv] = s; });
      }
    }
    if (!endstage && label_[b] == 2) {
      WMATCH_ASSERT(labelend_[b] >= 0);
      int entrychild = inblossom_[endpoint_[labelend_[b] ^ 1]];
      int j = static_cast<int>(
          std::find(blossomchilds_[b].begin(), blossomchilds_[b].end(),
                    entrychild) -
          blossomchilds_[b].begin());
      int jstep, endptrick;
      if (j & 1) {
        j -= static_cast<int>(blossomchilds_[b].size());
        jstep = 1;
        endptrick = 0;
      } else {
        jstep = -1;
        endptrick = 1;
      }
      auto child_at = [&](int idx) {
        int sz = static_cast<int>(blossomchilds_[b].size());
        return blossomchilds_[b][(idx % sz + sz) % sz];
      };
      auto endp_at = [&](int idx) {
        int sz = static_cast<int>(blossomendps_[b].size());
        return blossomendps_[b][(idx % sz + sz) % sz];
      };
      int p = labelend_[b];
      while (j != 0) {
        label_[endpoint_[p ^ 1]] = 0;
        label_[endpoint_[endp_at(j - endptrick) ^ endptrick ^ 1]] = 0;
        assign_label(endpoint_[p ^ 1], 2, p);
        allowedge_[endp_at(j - endptrick) / 2] = true;
        j += jstep;
        p = endp_at(j - endptrick) ^ endptrick;
        allowedge_[p / 2] = true;
        j += jstep;
      }
      int bv = child_at(j);
      label_[endpoint_[p ^ 1]] = label_[bv] = 2;
      labelend_[endpoint_[p ^ 1]] = labelend_[bv] = p;
      bestedge_[bv] = -1;
      j += jstep;
      while (child_at(j) != entrychild) {
        bv = child_at(j);
        if (label_[bv] == 1) {
          j += jstep;
          continue;
        }
        const int labelled = first_labelled_leaf(bv);
        if (labelled != -1) {
          WMATCH_ASSERT(label_[labelled] == 2);
          WMATCH_ASSERT(inblossom_[labelled] == bv);
          label_[labelled] = 0;
          label_[endpoint_[mate_[blossombase_[bv]]]] = 0;
          assign_label(labelled, 2, labelend_[labelled]);
        }
        j += jstep;
      }
    }
    label_[b] = -1;
    labelend_[b] = -1;
    blossomchilds_[b].clear();
    blossomendps_[b].clear();
    blossombase_[b] = -1;
    blossombestedges_[b].clear();
    has_bestedges_[b] = false;
    bestedge_[b] = -1;
    unusedblossoms_.push_back(b);
  }

  void augment_blossom(int b, int v) {
    int t = v;
    while (blossomparent_[t] != b) t = blossomparent_[t];
    if (t >= nv_) augment_blossom(t, v);
    int i = static_cast<int>(
        std::find(blossomchilds_[b].begin(), blossomchilds_[b].end(), t) -
        blossomchilds_[b].begin());
    int j = i;
    int jstep, endptrick;
    int sz = static_cast<int>(blossomchilds_[b].size());
    if (i & 1) {
      j -= sz;
      jstep = 1;
      endptrick = 0;
    } else {
      jstep = -1;
      endptrick = 1;
    }
    auto child_at = [&](int idx) {
      return blossomchilds_[b][(idx % sz + sz) % sz];
    };
    auto endp_at = [&](int idx) {
      return blossomendps_[b][(idx % sz + sz) % sz];
    };
    while (j != 0) {
      j += jstep;
      int tt = child_at(j);
      int p = endp_at(j - endptrick) ^ endptrick;
      if (tt >= nv_) augment_blossom(tt, endpoint_[p]);
      j += jstep;
      tt = child_at(j);
      if (tt >= nv_) augment_blossom(tt, endpoint_[p ^ 1]);
      mate_[endpoint_[p]] = p ^ 1;
      mate_[endpoint_[p ^ 1]] = p;
    }
    std::rotate(blossomchilds_[b].begin(), blossomchilds_[b].begin() + i,
                blossomchilds_[b].end());
    std::rotate(blossomendps_[b].begin(), blossomendps_[b].begin() + i,
                blossomendps_[b].end());
    blossombase_[b] = blossombase_[blossomchilds_[b][0]];
    WMATCH_ASSERT(blossombase_[b] == v);
  }

  void augment_matching(int k) {
    int v = edges_[k].i;
    int w = edges_[k].j;
    const int starts[2][2] = {{v, 2 * k + 1}, {w, 2 * k}};
    for (const auto& sp : starts) {
      int s = sp[0];
      int p = sp[1];
      for (;;) {
        int bs = inblossom_[s];
        WMATCH_ASSERT(label_[bs] == 1);
        WMATCH_ASSERT(labelend_[bs] == mate_[blossombase_[bs]]);
        if (bs >= nv_) augment_blossom(bs, s);
        mate_[s] = p;
        if (labelend_[bs] == -1) break;
        int t = endpoint_[labelend_[bs]];
        int bt = inblossom_[t];
        WMATCH_ASSERT(label_[bt] == 2);
        WMATCH_ASSERT(labelend_[bt] >= 0);
        s = endpoint_[labelend_[bt]];
        int j = endpoint_[labelend_[bt] ^ 1];
        WMATCH_ASSERT(blossombase_[bt] == t);
        if (bt >= nv_) augment_blossom(bt, j);
        mate_[j] = labelend_[bt];
        p = labelend_[bt] ^ 1;
      }
    }
  }

  /// Scans the edges of S-vertex v. Returns true when it augmented.
  /// Duals only move between scans, so a slack computed during one stays
  /// valid until the next dual step: bestedge_[bv]'s slack lives in a
  /// local (only this loop writes that entry until add_blossom replaces
  /// bv), and a free vertex's best slack is cached with the dual step's
  /// epoch.
  bool scan_vertex(int v) {
    int bv = inblossom_[v];
    WMATCH_ASSERT(label_[bv] == 1);
    const Weight dv = dualvar_[v];
    Weight bv_best = bestedge_[bv] == -1 ? 0 : slack(bestedge_[bv]);
    for (int s = offset_[v]; s < offset_[v + 1]; ++s) {
      const int p = slots_[s].p;
      const int k = p / 2;
      const int w = slots_[s].w;
      const int bw = inblossom_[w];
      if (bv == bw) continue;
      Weight kslack = 0;
      if (!allowedge_[k]) {
        kslack = dv + dualvar_[w] - slots_[s].twice_w;
        if (kslack <= 0) allowedge_[k] = true;
      }
      const int lw = label_[bw];
      if (allowedge_[k]) {
        if (lw == 0) {
          assign_label(w, 2, p ^ 1);
        } else if (lw == 1) {
          int base = scan_blossom(v, w);
          if (base < 0) {
            augment_matching(k);
            return true;
          }
          add_blossom(base, k);
          bv = inblossom_[v];
          bv_best = bestedge_[bv] == -1 ? 0 : slack(bestedge_[bv]);
        } else if (label_[w] == 0) {
          WMATCH_ASSERT(lw == 2);
          label_[w] = 2;
          labelend_[w] = p ^ 1;
        }
      } else if (lw == 1) {
        if (bestedge_[bv] == -1 || kslack < bv_best) {
          bestedge_[bv] = k;
          bv_best = kslack;
        }
      } else if (label_[w] == 0) {
        if (bestedge_[w] == -1 || kslack < best_slack(w)) {
          bestedge_[w] = k;
          bestslack_[w] = kslack;
          bestslack_epoch_[w] = dual_epoch_;
        }
      }
    }
    return false;
  }

  void main_loop() {
    for (int stage = 0; stage < nv_; ++stage) {
      // Ids at or above top_ were never allocated: label 0, no best edge.
      std::fill(label_.begin(), label_.begin() + top_, 0);
      std::fill(bestedge_.begin(), bestedge_.begin() + top_, -1);
      for (int b = nv_; b < top_; ++b) {
        blossombestedges_[b].clear();
        has_bestedges_[b] = false;
      }
      std::fill(allowedge_.begin(), allowedge_.end(), false);
      queue_.clear();
      for (int v = 0; v < nv_; ++v) {
        if (mate_[v] == -1 && label_[inblossom_[v]] == 0) {
          assign_label(v, 1, -1);
        }
      }
      bool augmented = false;
      for (;;) {
        while (!queue_.empty()) {
          int v = queue_.back();
          queue_.pop_back();
          if (scan_vertex(v)) {
            augmented = true;
            break;
          }
        }
        if (augmented) break;

        // Dual adjustment. One pass over the vertices and one over the
        // blossoms keep each delta type's first minimum in index order;
        // the types then compete in type order with strict <, exactly as
        // four sequential first-minimum loops would.
        Weight mindual = dualvar_[0];
        int e2 = -1, e3 = -1, b4 = -1;
        Weight d2 = 0, d3 = 0, d4 = 0;
        auto offer3 = [&](int b) {
          Weight kslack = slack(bestedge_[b]);
          WMATCH_ASSERT(kslack % 2 == 0);
          Weight d = kslack / 2;
          if (e3 == -1 || d < d3) {
            d3 = d;
            e3 = bestedge_[b];
          }
        };
        for (int v = 0; v < nv_; ++v) {
          mindual = std::min(mindual, dualvar_[v]);
          if (bestedge_[v] == -1) continue;
          if (label_[inblossom_[v]] == 0) {
            Weight d = best_slack(v);
            if (e2 == -1 || d < d2) {
              d2 = d;
              e2 = bestedge_[v];
            }
          }
          if (blossomparent_[v] == -1 && label_[v] == 1) offer3(v);
        }
        for (int b = nv_; b < top_; ++b) {
          if (blossomparent_[b] != -1) continue;
          if (label_[b] == 1 && bestedge_[b] != -1) offer3(b);
          if (blossombase_[b] >= 0 && label_[b] == 2 &&
              (b4 == -1 || dualvar_[b] < d4)) {
            d4 = dualvar_[b];
            b4 = b;
          }
        }
        int deltatype = -1;
        Weight delta = 0;
        int deltaedge = -1;
        int deltablossom = -1;
        if (!maxcard_) {
          deltatype = 1;
          delta = mindual;
        }
        if (e2 != -1 && (deltatype == -1 || d2 < delta)) {
          delta = d2;
          deltatype = 2;
          deltaedge = e2;
        }
        if (e3 != -1 && (deltatype == -1 || d3 < delta)) {
          delta = d3;
          deltatype = 3;
          deltaedge = e3;
        }
        if (b4 != -1 && (deltatype == -1 || d4 < delta)) {
          delta = d4;
          deltatype = 4;
          deltablossom = b4;
        }
        if (deltatype == -1) {
          // No further improvement possible (max-cardinality path).
          deltatype = 1;
          delta = std::max<Weight>(0, mindual);
        }

        // Branch-free: S vertices lose delta, T vertices gain it; top-level
        // S blossoms gain it, T blossoms lose it.
        for (int v = 0; v < nv_; ++v) {
          const int lbl = label_[inblossom_[v]];
          dualvar_[v] += delta * ((lbl == 2) - (lbl == 1));
        }
        for (int b = nv_; b < top_; ++b) {
          const int lbl = label_[b];
          const bool top = blossombase_[b] >= 0 && blossomparent_[b] == -1;
          dualvar_[b] += top ? delta * ((lbl == 1) - (lbl == 2)) : 0;
        }
        ++dual_epoch_;

        if (deltatype == 1) {
          break;
        } else if (deltatype == 2) {
          allowedge_[deltaedge] = true;
          int i = edges_[deltaedge].i;
          int j = edges_[deltaedge].j;
          if (label_[inblossom_[i]] == 0) std::swap(i, j);
          WMATCH_ASSERT(label_[inblossom_[i]] == 1);
          queue_.push_back(i);
        } else if (deltatype == 3) {
          allowedge_[deltaedge] = true;
          int i = edges_[deltaedge].i;
          WMATCH_ASSERT(label_[inblossom_[i]] == 1);
          queue_.push_back(i);
        } else {
          expand_blossom(deltablossom, false);
        }
      }
      if (!augmented) break;
      // End of stage: expand all S-blossoms with zero dual.
      for (int b = nv_; b < top_; ++b) {
        if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
            label_[b] == 1 && dualvar_[b] == 0) {
          expand_blossom(b, true);
        }
      }
    }
  }

  const GraphView& g_;
  bool maxcard_;
  int nv_ = 0;
  int ne_;
  std::vector<Vertex> orig_;  ///< solver vertex -> input vertex
  std::vector<IEdge> edges_;
  std::vector<int> endpoint_;
  // Flat adjacency: vertex v's slots are [offset_[v], offset_[v+1]).
  std::vector<int> offset_;
  std::vector<Slot> slots_;
  std::vector<int> mate_;
  std::vector<int> label_;
  std::vector<int> labelend_;
  std::vector<int> inblossom_;
  std::vector<int> blossomparent_;
  std::vector<std::vector<int>> blossomchilds_;
  std::vector<int> blossombase_;
  std::vector<std::vector<int>> blossomendps_;
  std::vector<int> bestedge_;
  std::vector<std::vector<int>> blossombestedges_;
  std::vector<char> has_bestedges_;
  std::vector<int> unusedblossoms_;
  int top_ = 0;  ///< one past the highest blossom id ever allocated
  std::vector<Weight> dualvar_;
  std::vector<char> allowedge_;
  std::vector<int> queue_;
  // Slack of a vertex's best edge, valid while its epoch is dual_epoch_.
  std::vector<Weight> bestslack_;
  std::vector<std::uint64_t> bestslack_epoch_;
  std::uint64_t dual_epoch_ = 1;
  // Scratch reused across calls.
  std::vector<int> path_;        ///< scan_blossom
  std::vector<int> bestedgeto_;  ///< add_blossom, all -1 between calls
  std::vector<int> touched_;     ///< add_blossom
};

}  // namespace

Matching blossom_max_weight(const GraphView& g, bool max_cardinality) {
  obs::Span span("exact.blossom", max_cardinality ? 1 : 0);
  BlossomSolver solver(g, max_cardinality);
  return solver.solve();
}

}  // namespace wmatch::exact
