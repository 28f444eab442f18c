#include "core/short_augmentations.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/require.h"

namespace wmatch::core {

namespace {

Weight edges_weight(const std::vector<Edge>& edges) {
  Weight total = 0;
  for (const Edge& e : edges) total += e.w;
  return total;
}

/// Splits a path's edge sequence at every edge where `drop` holds,
/// discarding those edges.
std::vector<std::vector<Edge>> split_where(
    const std::vector<Edge>& edges,
    const std::function<bool(const Edge&)>& drop) {
  std::vector<std::vector<Edge>> pieces;
  std::vector<Edge> cur;
  for (const Edge& e : edges) {
    if (drop(e)) {
      if (!cur.empty()) pieces.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(e);
    }
  }
  if (!cur.empty()) pieces.push_back(std::move(cur));
  return pieces;
}

}  // namespace

ShortAugmentationsResult short_augmentations(const Matching& m,
                                             const Matching& m_star,
                                             double epsilon,
                                             const runtime::RuntimeConfig& rt) {
  WMATCH_REQUIRE(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
  const std::size_t max_len =
      static_cast<std::size_t>(std::ceil(4.0 / epsilon));

  std::vector<Augmentation> comps = symmetric_difference_components(m, m_star);

  // Global ordering of M*-edges across components (the lemma's labeling).
  // For each component, record the indices of its M*-edges.
  struct Comp {
    std::vector<Edge> edges;
    bool is_cycle;
    std::vector<std::size_t> star_pos;   // positions within `edges`
    std::size_t star_offset;             // global index of first M*-edge
  };
  std::vector<Comp> comps2;
  std::size_t global_star = 0;
  for (Augmentation& a : comps) {
    Comp c{std::move(a.edges), a.is_cycle, {}, global_star};
    for (std::size_t i = 0; i < c.edges.size(); ++i) {
      if (m_star.contains(c.edges[i])) c.star_pos.push_back(i);
    }
    global_star += c.star_pos.size();
    comps2.push_back(std::move(c));
  }
  if (global_star == 0) return {};

  // One trial per deletion offset; trials only read comps2 / m / m_star,
  // so they run concurrently. The fold keeps the lowest offset among
  // maximum gains — exactly what the sequential strict-> scan selected —
  // so the result is identical for any thread count.
  auto trial_for_offset = [&](std::size_t offset) {
    ShortAugmentationsResult trial;
    for (const Comp& c : comps2) {
      // Pieces after deleting the offset-marked M*-edges.
      std::vector<std::vector<Edge>> pieces;
      std::vector<char> removed(c.edges.size(), 0);
      bool any_removed = false;
      for (std::size_t si = 0; si < c.star_pos.size(); ++si) {
        if ((c.star_offset + si) % max_len == offset) {
          removed[c.star_pos[si]] = 1;
          any_removed = true;
        }
      }
      if (c.is_cycle && any_removed) {
        // Rotate so that a removed edge is first, then split linearly.
        std::size_t first_removed = 0;
        while (!removed[first_removed]) ++first_removed;
        std::vector<Edge> rotated;
        std::vector<char> rremoved;
        for (std::size_t i = 0; i < c.edges.size(); ++i) {
          std::size_t j = (first_removed + i) % c.edges.size();
          rotated.push_back(c.edges[j]);
          rremoved.push_back(removed[j]);
        }
        std::vector<Edge> cur;
        for (std::size_t i = 0; i < rotated.size(); ++i) {
          if (rremoved[i]) {
            if (!cur.empty()) pieces.push_back(std::move(cur));
            cur.clear();
          } else {
            cur.push_back(rotated[i]);
          }
        }
        if (!cur.empty()) pieces.push_back(std::move(cur));
      } else if (any_removed) {
        std::vector<Edge> cur;
        for (std::size_t i = 0; i < c.edges.size(); ++i) {
          if (removed[i]) {
            if (!cur.empty()) pieces.push_back(std::move(cur));
            cur.clear();
          } else {
            cur.push_back(c.edges[i]);
          }
        }
        if (!cur.empty()) pieces.push_back(std::move(cur));
      } else {
        pieces.push_back(c.edges);
      }

      // Prune light M*-edges, then light M-edges (Properties B / C).
      std::vector<std::vector<Edge>> stage2;
      for (auto& piece : pieces) {
        Weight pw = edges_weight(piece);
        double thr_star = epsilon * epsilon / 64.0 * static_cast<double>(pw);
        for (auto& sub : split_where(piece, [&](const Edge& e) {
               return m_star.contains(e) &&
                      static_cast<double>(e.w) < thr_star;
             })) {
          stage2.push_back(std::move(sub));
        }
      }
      std::vector<std::vector<Edge>> stage3;
      for (auto& piece : stage2) {
        Weight pw = edges_weight(piece);
        double thr_m = std::pow(epsilon, 6) / 64.0 * static_cast<double>(pw);
        for (auto& sub : split_where(piece, [&](const Edge& e) {
               return m.contains(e) && static_cast<double>(e.w) < thr_m;
             })) {
          stage3.push_back(std::move(sub));
        }
      }

      // Keep pieces satisfying length and the gain ratio (Property D).
      for (auto& piece : stage3) {
        Augmentation aug;
        aug.edges = std::move(piece);
        aug.is_cycle = (!any_removed && c.is_cycle &&
                        aug.edges.size() == c.edges.size());
        if (!aug.is_valid_alternating(m)) continue;
        std::size_t total_edges =
            aug.edges.size() + aug.matching_neighborhood(m).size();
        if (total_edges > 2 * max_len) continue;  // comfortably short
        Weight star_w = 0;
        for (const Edge& e : aug.edges) {
          if (m_star.contains(e)) star_w += e.w;
        }
        Weight cm_w = 0;
        for (const Edge& e : aug.matching_neighborhood(m)) cm_w += e.w;
        if (static_cast<double>(star_w) <
            (1.0 + epsilon / 8.0) * static_cast<double>(cm_w)) {
          continue;
        }
        Weight gain = star_w - cm_w;
        if (gain <= 0) continue;
        trial.total_gain += gain;
        trial.max_piece_edges = std::max(trial.max_piece_edges, total_edges);
        trial.collection.push_back(std::move(aug));
      }
    }
    return trial;
  };

  std::size_t comp_edges = 0;
  for (const Comp& c : comps2) comp_edges += c.edges.size();
  // Small witnesses are extracted inline (same result, less overhead).
  runtime::ThreadPool& pool =
      runtime::pool_for_work(rt, comp_edges * max_len);
  return runtime::parallel_reduce(
      pool, max_len, 1, ShortAugmentationsResult{},
      [&](std::size_t lo, std::size_t hi) {
        ShortAugmentationsResult chunk_best;
        for (std::size_t offset = lo; offset < hi; ++offset) {
          ShortAugmentationsResult trial = trial_for_offset(offset);
          if (trial.total_gain > chunk_best.total_gain) {
            chunk_best = std::move(trial);
          }
        }
        return chunk_best;
      },
      [](ShortAugmentationsResult acc, ShortAugmentationsResult next) {
        return next.total_gain > acc.total_gain ? std::move(next)
                                                : std::move(acc);
      });
}

}  // namespace wmatch::core
