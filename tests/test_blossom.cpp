#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "exact/blossom.h"
#include "exact/brute_force.h"
#include "gen/generators.h"
#include "gen/hard_instances.h"
#include "gen/weights.h"
#include "hot_path.h"
#include "util/require.h"
#include "util/rng.h"

namespace wmatch {
namespace {

// The Blossom solver as it stood before its flat-adjacency rewrite (a
// direct port of mwmatching.py over per-vertex endpoint lists, 2*n blossom
// slots scanned in full). The library must run the same steps, so it must
// return the same edges on every input, ties included.
namespace reference {

class SeedBlossom {
 public:
  SeedBlossom(const GraphView& g, bool max_cardinality)
      : g_(g), maxcard_(max_cardinality), nv_(static_cast<int>(g.num_vertices())),
        ne_(static_cast<int>(g.num_edges())) {
    edges_.reserve(ne_);
    for (const Edge& e : g.edges()) {
      // Weights doubled so dual variables stay integral.
      edges_.push_back({static_cast<int>(e.u), static_cast<int>(e.v), 2 * e.w});
    }
    Weight maxweight = 0;
    for (const auto& e : edges_) maxweight = std::max(maxweight, e.w);

    endpoint_.resize(2 * ne_);
    neighbend_.assign(nv_, {});
    for (int k = 0; k < ne_; ++k) {
      endpoint_[2 * k] = edges_[k].i;
      endpoint_[2 * k + 1] = edges_[k].j;
      neighbend_[edges_[k].i].push_back(2 * k + 1);
      neighbend_[edges_[k].j].push_back(2 * k);
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
    dualvar_.assign(2 * nv_, 0);
    for (int v = 0; v < nv_; ++v) dualvar_[v] = maxweight;
    allowedge_.assign(ne_, false);
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

  Weight slack(int k) const {
    return dualvar_[edges_[k].i] + dualvar_[edges_[k].j] - 2 * edges_[k].w;
  }

  void blossom_leaves(int b, std::vector<int>& out) const {
    if (b < nv_) {
      out.push_back(b);
    } else {
      for (int t : blossomchilds_[b]) blossom_leaves(t, out);
    }
  }

  void assign_label(int w, int t, int p) {
    int b = inblossom_[w];
    WMATCH_ASSERT(label_[w] == 0 && label_[b] == 0);
    label_[w] = label_[b] = t;
    labelend_[w] = labelend_[b] = p;
    bestedge_[w] = bestedge_[b] = -1;
    if (t == 1) {
      std::vector<int> leaves;
      blossom_leaves(b, leaves);
      queue_.insert(queue_.end(), leaves.begin(), leaves.end());
    } else if (t == 2) {
      int base = blossombase_[b];
      WMATCH_ASSERT(mate_[base] >= 0);
      assign_label(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
    }
  }

  int scan_blossom(int v, int w) {
    std::vector<int> path;
    int base = -1;
    while (v != -1 || w != -1) {
      int b = inblossom_[v];
      if (label_[b] & 4) {
        base = blossombase_[b];
        break;
      }
      WMATCH_ASSERT(label_[b] == 1);
      path.push_back(b);
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
    for (int b : path) label_[b] = 1;
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
    blossombase_[b] = base;
    blossomparent_[b] = -1;
    blossomparent_[bb] = b;
    std::vector<int> path;
    std::vector<int> endps;
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
    blossomchilds_[b] = std::move(path);
    blossomendps_[b] = std::move(endps);
    WMATCH_ASSERT(label_[bb] == 1);
    label_[b] = 1;
    labelend_[b] = labelend_[bb];
    dualvar_[b] = 0;
    std::vector<int> leaves;
    blossom_leaves(b, leaves);
    for (int lv : leaves) {
      if (label_[inblossom_[lv]] == 2) queue_.push_back(lv);
      inblossom_[lv] = b;
    }
    // Compute best edges to neighbouring S-blossoms.
    std::vector<int> bestedgeto(2 * nv_, -1);
    for (int child : blossomchilds_[b]) {
      std::vector<std::vector<int>> nblists;
      if (!has_bestedges_[child]) {
        std::vector<int> cl;
        blossom_leaves(child, cl);
        for (int lv : cl) {
          std::vector<int> lst;
          lst.reserve(neighbend_[lv].size());
          for (int p : neighbend_[lv]) lst.push_back(p / 2);
          nblists.push_back(std::move(lst));
        }
      } else {
        nblists.push_back(blossombestedges_[child]);
      }
      for (const auto& nblist : nblists) {
        for (int ek : nblist) {
          int i = edges_[ek].i;
          int j = edges_[ek].j;
          if (inblossom_[j] == b) std::swap(i, j);
          int bj = inblossom_[j];
          if (bj != b && label_[bj] == 1 &&
              (bestedgeto[bj] == -1 || slack(ek) < slack(bestedgeto[bj]))) {
            bestedgeto[bj] = ek;
          }
        }
      }
      blossombestedges_[child].clear();
      has_bestedges_[child] = false;
      bestedge_[child] = -1;
    }
    blossombestedges_[b].clear();
    for (int ek : bestedgeto) {
      if (ek != -1) blossombestedges_[b].push_back(ek);
    }
    has_bestedges_[b] = true;
    bestedge_[b] = -1;
    for (int ek : blossombestedges_[b]) {
      if (bestedge_[b] == -1 || slack(ek) < slack(bestedge_[b])) {
        bestedge_[b] = ek;
      }
    }
  }

  void expand_blossom(int b, bool endstage) {
    for (int s : blossomchilds_[b]) {
      blossomparent_[s] = -1;
      if (s < nv_) {
        inblossom_[s] = s;
      } else if (endstage && dualvar_[s] == 0) {
        expand_blossom(s, endstage);
      } else {
        std::vector<int> leaves;
        blossom_leaves(s, leaves);
        for (int lv : leaves) inblossom_[lv] = s;
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
        std::vector<int> leaves;
        blossom_leaves(bv, leaves);
        int labelled = -1;
        for (int lv : leaves) {
          if (label_[lv] != 0) {
            labelled = lv;
            break;
          }
        }
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

  void main_loop() {
    for (int stage = 0; stage < nv_; ++stage) {
      std::fill(label_.begin(), label_.end(), 0);
      std::fill(bestedge_.begin(), bestedge_.end(), -1);
      for (int b = nv_; b < 2 * nv_; ++b) {
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
        while (!queue_.empty() && !augmented) {
          int v = queue_.back();
          queue_.pop_back();
          WMATCH_ASSERT(label_[inblossom_[v]] == 1);
          for (int p : neighbend_[v]) {
            int k = p / 2;
            int w = endpoint_[p];
            if (inblossom_[v] == inblossom_[w]) continue;
            Weight kslack = 0;
            if (!allowedge_[k]) {
              kslack = slack(k);
              if (kslack <= 0) allowedge_[k] = true;
            }
            if (allowedge_[k]) {
              if (label_[inblossom_[w]] == 0) {
                assign_label(w, 2, p ^ 1);
              } else if (label_[inblossom_[w]] == 1) {
                int base = scan_blossom(v, w);
                if (base >= 0) {
                  add_blossom(base, k);
                } else {
                  augment_matching(k);
                  augmented = true;
                  break;
                }
              } else if (label_[w] == 0) {
                WMATCH_ASSERT(label_[inblossom_[w]] == 2);
                label_[w] = 2;
                labelend_[w] = p ^ 1;
              }
            } else if (label_[inblossom_[w]] == 1) {
              int b = inblossom_[v];
              if (bestedge_[b] == -1 || kslack < slack(bestedge_[b])) {
                bestedge_[b] = k;
              }
            } else if (label_[w] == 0) {
              if (bestedge_[w] == -1 || kslack < slack(bestedge_[w])) {
                bestedge_[w] = k;
              }
            }
          }
        }
        if (augmented) break;

        // Dual adjustment.
        int deltatype = -1;
        Weight delta = 0;
        int deltaedge = -1;
        int deltablossom = -1;
        if (!maxcard_) {
          deltatype = 1;
          delta = dualvar_[0];
          for (int v = 1; v < nv_; ++v) delta = std::min(delta, dualvar_[v]);
        }
        for (int v = 0; v < nv_; ++v) {
          if (label_[inblossom_[v]] == 0 && bestedge_[v] != -1) {
            Weight d = slack(bestedge_[v]);
            if (deltatype == -1 || d < delta) {
              delta = d;
              deltatype = 2;
              deltaedge = bestedge_[v];
            }
          }
        }
        for (int b = 0; b < 2 * nv_; ++b) {
          if (blossomparent_[b] == -1 && label_[b] == 1 &&
              bestedge_[b] != -1) {
            Weight kslack = slack(bestedge_[b]);
            WMATCH_ASSERT(kslack % 2 == 0);
            Weight d = kslack / 2;
            if (deltatype == -1 || d < delta) {
              delta = d;
              deltatype = 3;
              deltaedge = bestedge_[b];
            }
          }
        }
        for (int b = nv_; b < 2 * nv_; ++b) {
          if (blossombase_[b] >= 0 && blossomparent_[b] == -1 &&
              label_[b] == 2 && (deltatype == -1 || dualvar_[b] < delta)) {
            delta = dualvar_[b];
            deltatype = 4;
            deltablossom = b;
          }
        }
        if (deltatype == -1) {
          // No further improvement possible (max-cardinality path).
          deltatype = 1;
          Weight mn = dualvar_[0];
          for (int v = 1; v < nv_; ++v) mn = std::min(mn, dualvar_[v]);
          delta = std::max<Weight>(0, mn);
        }

        for (int v = 0; v < nv_; ++v) {
          int lbl = label_[inblossom_[v]];
          if (lbl == 1) {
            dualvar_[v] -= delta;
          } else if (lbl == 2) {
            dualvar_[v] += delta;
          }
        }
        for (int b = nv_; b < 2 * nv_; ++b) {
          if (blossombase_[b] >= 0 && blossomparent_[b] == -1) {
            if (label_[b] == 1) {
              dualvar_[b] += delta;
            } else if (label_[b] == 2) {
              dualvar_[b] -= delta;
            }
          }
        }

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
      for (int b = nv_; b < 2 * nv_; ++b) {
        if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
            label_[b] == 1 && dualvar_[b] == 0) {
          expand_blossom(b, true);
        }
      }
    }
  }

  const GraphView& g_;
  bool maxcard_;
  int nv_;
  int ne_;
  std::vector<IEdge> edges_;
  std::vector<int> endpoint_;
  std::vector<std::vector<int>> neighbend_;
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
  std::vector<Weight> dualvar_;
  std::vector<char> allowedge_;
  std::vector<int> queue_;
};

Matching reference_blossom(const GraphView& g, bool max_cardinality) {
  return SeedBlossom(g, max_cardinality).solve();
}

}  // namespace reference

using reference::reference_blossom;

TEST(Blossom, EmptyAndTrivialGraphs) {
  Graph g0(0);
  EXPECT_EQ(exact::blossom_max_weight(freeze(g0)).weight(), 0);
  Graph g1(3);
  EXPECT_EQ(exact::blossom_max_weight(freeze(g1)).weight(), 0);
  Graph g2(2);
  g2.add_edge(0, 1, 9);
  EXPECT_EQ(exact::blossom_max_weight(freeze(g2)).weight(), 9);
}

TEST(Blossom, OddCycleNeedsBlossoms) {
  // 5-cycle with uniform weights: max matching has 2 edges.
  Graph g(5);
  for (Vertex v = 0; v < 5; ++v) g.add_edge(v, (v + 1) % 5, 10);
  Matching m = exact::blossom_max_weight(freeze(g));
  EXPECT_EQ(m.weight(), 20);
  EXPECT_EQ(m.size(), 2u);
}

TEST(Blossom, PetersenLikeNestedStructure) {
  // Two triangles joined by a path — classic blossom stress shape.
  Graph g(8);
  g.add_edge(0, 1, 8);
  g.add_edge(1, 2, 9);
  g.add_edge(0, 2, 10);
  g.add_edge(2, 3, 6);
  g.add_edge(3, 4, 4);
  g.add_edge(4, 5, 5);
  g.add_edge(5, 6, 9);
  g.add_edge(6, 7, 8);
  g.add_edge(5, 7, 10);
  Matching bl = exact::blossom_max_weight(freeze(g));
  Matching bf = exact::brute_force_max_weight(freeze(g));
  EXPECT_EQ(bl.weight(), bf.weight());
  EXPECT_TRUE(is_valid_matching(bl, g));
}

TEST(Blossom, MaxCardinalityModeMatchesBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = gen::erdos_renyi(11, 20, rng);
    g = gen::assign_weights(g, gen::WeightDist::kUniform, 8, rng);
    Matching bl = exact::blossom_max_weight(freeze(g), true);
    EXPECT_EQ(bl.size(), exact::brute_force_max_cardinality(freeze(g)));
    EXPECT_TRUE(is_valid_matching(bl, g));
  }
}

TEST(Blossom, FourCycleFamilyOptimum) {
  auto inst = gen::four_cycle_family(5, 3, 1);
  Matching m = exact::blossom_max_weight(freeze(inst.graph));
  EXPECT_EQ(m.weight(), inst.optimal_weight);
}

class BlossomRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlossomRandomTest, AgreesWithBruteForce) {
  auto [seed, n, maxw] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int trial = 0; trial < 25; ++trial) {
    std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
    std::size_t m = 1 + rng.next_below(std::min<std::size_t>(max_edges, 28));
    Graph g = gen::erdos_renyi(static_cast<std::size_t>(n), m, rng);
    g = gen::assign_weights(g, gen::WeightDist::kUniform,
                            static_cast<Weight>(maxw), rng);
    Matching bl = exact::blossom_max_weight(freeze(g));
    Matching bf = exact::brute_force_max_weight(freeze(g));
    ASSERT_EQ(bl.weight(), bf.weight())
        << "seed=" << seed << " trial=" << trial << " n=" << n;
    ASSERT_TRUE(is_valid_matching(bl, g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomRandomTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(6, 9, 12),
                       ::testing::Values(1, 10, 100)));

TEST(Blossom, TiedWeightsStress) {
  // Uniform weights force many ties -> exercises blossom formation.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = gen::erdos_renyi(10, 18, rng);
    Matching bl = exact::blossom_max_weight(freeze(g));
    Matching bf = exact::brute_force_max_weight(freeze(g));
    ASSERT_EQ(bl.weight(), bf.weight()) << trial;
  }
}

TEST(Blossom, LargeInstanceRunsAndIsValid) {
  Rng rng(123);
  Graph g = gen::erdos_renyi(300, 2000, rng);
  g = gen::assign_weights(g, gen::WeightDist::kExponential, 1 << 16, rng);
  Matching m = exact::blossom_max_weight(freeze(g));
  EXPECT_TRUE(is_valid_matching(m, g));
  EXPECT_GT(m.weight(), 0);
}

/// Expects the library and the reference to return equal matchings on g in
/// both modes.
void expect_same_as_reference(const Graph& g, const std::string& what) {
  const GraphView view = freeze(g);
  for (const bool max_card : {false, true}) {
    const Matching want = reference_blossom(view, max_card);
    const Matching got = exact::blossom_max_weight(view, max_card);
    ASSERT_EQ(got, want) << what << (max_card ? " max-cardinality" : "");
  }
}

/// g relabelled into 3n vertices (v -> 3v+1), so every third vertex id
/// between and around the original ones is isolated.
Graph spread_out(const Graph& g) {
  Graph out(3 * g.num_vertices() + 1);
  for (const Edge& e : g.edges()) out.add_edge(3 * e.u + 1, 3 * e.v + 1, e.w);
  return out;
}

Graph random_family(int family, std::size_t n, Rng& rng) {
  switch (family) {
    case 0:
      return gen::erdos_renyi(n, 4 * n, rng);
    case 1:
      return gen::random_bipartite(n / 2, n - n / 2, 4 * n, rng);
    default:
      return gen::barabasi_albert(n, 3, rng);
  }
}

TEST(BlossomOracle, RandomGraphsMatchReferenceEdgeForEdge) {
  // Three families; distinct-ish, tie-heavy (max weight 8) and unit
  // weights; both modes (expect_same_as_reference); with and without
  // isolated vertices.
  for (int family = 0; family < 3; ++family) {
    for (std::size_t n : {50u, 300u}) {
      for (const auto& [dist, max_w] :
           {std::pair{gen::WeightDist::kUniform, Weight{1000}},
            std::pair{gen::WeightDist::kUniform, Weight{8}},
            std::pair{gen::WeightDist::kUnit, Weight{1}}}) {
        Rng rng(1000 * static_cast<std::uint64_t>(family) + n + max_w);
        const Graph g =
            gen::assign_weights(random_family(family, n, rng), dist, max_w, rng);
        const std::string what = "family " + std::to_string(family) +
                                 " n=" + std::to_string(n) +
                                 " max_w=" + std::to_string(max_w);
        expect_same_as_reference(g, what);
        expect_same_as_reference(spread_out(g), what + " spread");
      }
    }
  }
}

TEST(BlossomOracle, DenseTieHeavyGraphsMatchReference) {
  // Complete and near-complete graphs with weights in {1, 2, 3}: many
  // tight edges, so blossoms form, nest and are scanned into, and many
  // best edges tie on slack.
  Rng rng(17);
  for (std::size_t n : {12u, 25u, 40u}) {
    for (Weight max_w : {Weight{1}, Weight{3}}) {
      Graph k(n);
      for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = u + 1; v < n; ++v) {
          k.add_edge(u, v, rng.next_int(1, max_w));
        }
      }
      expect_same_as_reference(k, "K_" + std::to_string(n));
      const Graph g = gen::assign_weights(gen::erdos_renyi(4 * n, 16 * n, rng),
                                          gen::WeightDist::kUniform, max_w, rng);
      expect_same_as_reference(g, "dense n=" + std::to_string(4 * n));
    }
  }
}

TEST(BlossomOracle, SparseGraphsWithIsolatedVerticesMatchReference) {
  // Fewer edges than vertices: most vertices are isolated, as in the
  // random-arrival algorithms' T and S1 sets.
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 40 + rng.next_below(160);
    const std::size_t m = 1 + rng.next_below(n / 2);
    const Graph g = gen::assign_weights(gen::erdos_renyi(n, m, rng),
                                        gen::WeightDist::kUniform, 6, rng);
    expect_same_as_reference(g, "trial " + std::to_string(trial));
  }
}

TEST(BlossomOracle, NestedBlossomShapesMatchReference) {
  // mwmatching.py's regression shapes (1-indexed there, so vertex 0 is
  // isolated): S-blossoms relabelled as T, nested S-blossoms expanded
  // recursively at end of stage, T-blossoms expanded by a dual step,
  // and least-slack edges out of expanded blossoms.
  using Shape = std::vector<std::array<int, 3>>;
  const std::vector<Shape> shapes = {
      {{1, 2, 10}, {2, 3, 11}},
      {{1, 2, 5}, {2, 3, 11}, {3, 4, 5}},
      {{1, 2, 2}, {1, 3, -2}, {2, 3, 1}, {2, 4, -1}, {3, 4, -6}},
      {{1, 2, 8}, {1, 3, 9}, {2, 3, 10}, {3, 4, 7}},
      {{1, 2, 8}, {1, 3, 9}, {2, 3, 10}, {3, 4, 7}, {1, 6, 5}, {4, 5, 6}},
      {{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 4}, {1, 6, 3}},
      {{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 3}, {1, 6, 4}},
      {{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 3}, {3, 6, 4}},
      {{1, 2, 9}, {1, 3, 9}, {2, 3, 10}, {2, 4, 8}, {3, 5, 8}, {4, 5, 10},
       {5, 6, 6}},
      {{1, 2, 10}, {1, 7, 10}, {2, 3, 12}, {3, 4, 20}, {3, 5, 20}, {4, 5, 25},
       {5, 6, 10}, {6, 7, 10}, {7, 8, 8}},
      {{1, 2, 8}, {1, 3, 8}, {2, 3, 10}, {2, 4, 12}, {3, 5, 12}, {4, 5, 14},
       {4, 6, 12}, {5, 7, 12}, {6, 7, 14}, {7, 8, 12}},
      {{1, 2, 23}, {1, 5, 22}, {1, 6, 15}, {2, 3, 25}, {3, 4, 22}, {4, 5, 25},
       {4, 8, 14}, {5, 7, 13}},
      {{1, 2, 19}, {1, 3, 20}, {1, 8, 8}, {2, 3, 25}, {2, 4, 18}, {3, 5, 18},
       {4, 5, 13}, {4, 7, 7}, {5, 6, 7}},
      {{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50}, {1, 6, 30},
       {3, 9, 35}, {4, 8, 35}, {5, 7, 26}, {9, 10, 5}},
      {{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50}, {1, 6, 30},
       {3, 9, 35}, {4, 8, 26}, {5, 7, 40}, {9, 10, 5}},
      {{1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50}, {1, 6, 30},
       {3, 9, 35}, {4, 8, 28}, {5, 7, 26}, {9, 10, 5}},
      {{1, 2, 45}, {1, 7, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 95}, {4, 6, 94},
       {5, 6, 94}, {6, 7, 50}, {1, 8, 30}, {3, 11, 35}, {5, 9, 36}, {7, 10, 26},
       {11, 12, 5}},
      {{1, 2, 40}, {1, 3, 40}, {2, 3, 60}, {2, 4, 55}, {3, 5, 55}, {4, 5, 50},
       {1, 8, 15}, {5, 7, 30}, {7, 6, 10}, {8, 10, 10}, {4, 9, 30}},
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    int n = 0;
    for (const auto& e : shapes[i]) n = std::max({n, e[0] + 1, e[1] + 1});
    Graph g(static_cast<std::size_t>(n));
    for (const auto& e : shapes[i]) {
      // Non-positive weights are not edges here; the shape keeps the rest.
      if (e[2] > 0) g.add_edge(e[0], e[1], e[2]);
    }
    expect_same_as_reference(g, "shape " + std::to_string(i));
    EXPECT_EQ(exact::blossom_max_weight(freeze(g)).weight(),
              exact::brute_force_max_weight(freeze(g)).weight())
        << "shape " << i;
  }
}

TEST(BlossomOracle, HotPathKernelChecksumMatchesReference) {
  // bench_micro_kernels' blossom kernel: the stream workload's T set,
  // solved in both modes, must fold to the reference's checksum.
  const GraphView t = bench::hot_path::stream_t_set();
  std::size_t isolated = 0;
  for (Vertex v = 0; v < t.num_vertices(); ++v) isolated += t.degree(v) == 0;
  EXPECT_GT(isolated, 0u);
  EXPECT_EQ(bench::hot_path::blossom_checksum(t, exact::blossom_max_weight),
            bench::hot_path::blossom_checksum(t, reference_blossom));
}

}  // namespace
}  // namespace wmatch
