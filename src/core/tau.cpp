#include "core/tau.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/require.h"

namespace wmatch::core {

int max_units(const TauConfig& cfg) {
  return static_cast<int>(std::ceil((1.0 + cfg.slack) / cfg.granularity));
}

Weight quantum(Weight w_class, const TauConfig& cfg) {
  WMATCH_REQUIRE(w_class >= 1, "class weight must be positive");
  return std::max<Weight>(
      1, static_cast<Weight>(std::floor(cfg.granularity *
                                        static_cast<double>(w_class))));
}

namespace {

/// Table 1 conditions (A)-(F) with the unit budget umax = max_units(cfg)
/// passed in, so a candidate loop computes it once.
bool good_pair(std::span<const int> tau_a, std::span<const int> tau_b,
               std::size_t max_layers, int umax) {
  const std::size_t layers = tau_a.size();
  // (A) depth, (B) arity.
  if (layers < 2 || layers > max_layers) return false;
  if (tau_b.size() + 1 != layers) return false;
  // (C) a_t >= 0, (D) interior a_t >= 1 and every b_t >= 1.
  int sum_a = 0;
  for (std::size_t t = 0; t < layers; ++t) {
    const int a = tau_a[t];
    if (a < 0) return false;
    if (a < 1 && t != 0 && t + 1 != layers) return false;
    sum_a += a;
  }
  int sum_b = 0;
  for (int b : tau_b) {
    if (b < 1) return false;
    sum_b += b;
  }
  // (E) unit budget, (F) gain of at least one unit.
  return sum_b <= umax && sum_b - sum_a >= 1;
}

}  // namespace

bool is_good_pair(const TauPair& pair, const TauConfig& cfg) {
  return good_pair(pair.tau_a, pair.tau_b, cfg.max_layers, max_units(cfg));
}

TauPair induced_pair(const std::vector<Weight>& a_w,
                     const std::vector<Weight>& b_w, Weight unit) {
  WMATCH_REQUIRE(a_w.size() == b_w.size() + 1, "profile arity mismatch");
  WMATCH_REQUIRE(unit >= 1, "unit must be positive");
  TauPair pair;
  pair.tau_a.reserve(a_w.size());
  pair.tau_b.reserve(b_w.size());
  for (Weight w : a_w) {
    // Round up to the closest multiple of the unit.
    pair.tau_a.push_back(static_cast<int>((w + unit - 1) / unit));
  }
  for (Weight w : b_w) {
    // Round down.
    pair.tau_b.push_back(static_cast<int>(w / unit));
  }
  return pair;
}

namespace {

/// Sorted, deduplicated members of `vals` in [1, umax].
std::vector<int> unit_values(const std::vector<int>& vals, int umax) {
  std::vector<int> out;
  for (int v : vals) {
    if (v >= 1 && v <= umax) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A candidate stored flat: tau_a, then tau_b (2 * layers - 1 values).
using Flat = std::span<const int>;

std::size_t flat_layers(Flat cand) { return (cand.size() + 1) / 2; }

/// The output of pairs_for_values(_if), deduplicated on insert. `emitted`
/// counts every good candidate, duplicates included: that raw count is
/// what the max_pairs cap and the sampling budgets are measured in, so
/// the draw sequence does not depend on which candidates repeat or which
/// the filter rejects. Every distinct candidate is appended to one flat
/// buffer with its offset and hash, and `filter` (when set) is asked about
/// it once, there; take() turns only the kept ones into TauPairs.
/// Membership is an open-addressing table of candidate indices (slot value
/// index + 1, 0 = empty, load factor <= 1/2).
class PairEmitter {
 public:
  PairEmitter(const TauConfig& cfg, int umax, const PairFilter& filter)
      : max_layers_(cfg.max_layers), max_pairs_(cfg.max_pairs), umax_(umax),
        filter_(filter), begin_{0}, slots_(256, 0) {}

  bool full() const { return emitted_ >= max_pairs_; }
  std::size_t emitted() const { return emitted_; }

  /// Counts and keeps `cand` if it is good; a repeat is counted but not
  /// kept.
  void offer(Flat cand) {
    const std::size_t layers = flat_layers(cand);
    if (good_pair(cand.first(layers), cand.subspan(layers), max_layers_,
                  umax_)) {
      keep(cand);
    }
  }

  /// offer() for a candidate the caller has already found good.
  void keep(Flat cand) {
    ++emitted_;
    if (2 * (hashes_.size() + 1) > slots_.size()) grow();
    const std::uint64_t h = hash(cand);
    std::uint32_t* slot = find(cand, h);
    if (*slot != 0) return;
    values_.insert(values_.end(), cand.begin(), cand.end());
    begin_.push_back(static_cast<std::uint32_t>(values_.size()));
    hashes_.push_back(h);
    const std::size_t layers = flat_layers(cand);
    kept_.push_back(!filter_ ||
                    filter_(cand.first(layers), cand.subspan(layers)));
    *slot = static_cast<std::uint32_t>(hashes_.size());
  }

  std::vector<TauPair> take() && {
    std::vector<TauPair> out;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      if (!kept_[i]) continue;
      const Flat cand = at(i);
      const auto mid = cand.begin() + static_cast<std::ptrdiff_t>(
                                          flat_layers(cand));
      out.push_back({{cand.begin(), mid}, {mid, cand.end()}});
    }
    return out;
  }

 private:
  static std::uint64_t hash(Flat cand) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a
    std::uint64_t h = cand.size();
    for (int v : cand) h = (h ^ static_cast<std::uint32_t>(v)) * kPrime;
    return h ^ (h >> 29);
  }

  Flat at(std::size_t i) const {
    return {values_.data() + begin_[i], begin_[i + 1] - begin_[i]};
  }

  /// The slot holding `cand` (hash `h`), or the empty slot where it
  /// belongs.
  std::uint32_t* find(Flat cand, std::uint64_t h) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == 0) return &slots_[i];
      const Flat other = at(s - 1);
      if (hashes_[s - 1] == h &&
          std::equal(cand.begin(), cand.end(), other.begin(), other.end())) {
        return &slots_[i];
      }
    }
  }

  void grow() {
    slots_.assign(2 * slots_.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t c = 0; c < hashes_.size(); ++c) {
      std::size_t i = hashes_[c] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(c + 1);
    }
  }

  std::size_t max_layers_, max_pairs_;
  int umax_;
  const PairFilter& filter_;  ///< empty: keep every pair
  std::size_t emitted_ = 0;
  std::vector<int> values_;            ///< every candidate, back to back
  std::vector<std::uint32_t> begin_;   ///< one offset per candidate + end
  std::vector<std::uint64_t> hashes_;  ///< one per candidate
  std::vector<char> kept_;             ///< the filter's answer
  std::vector<std::uint32_t> slots_;
};

/// Priorities 1-3 of pairs_for_values: the deterministic profiles, each
/// filled into the flat scratch `cand` (2 * max_layers - 1 values). Stops
/// as soon as the cap is reached.
void emit_profiles(const std::vector<int>& a_vals,
                   const std::vector<int>& a_ends,
                   const std::vector<int>& b_vals, const TauConfig& cfg,
                   int umax, std::span<int> cand, PairEmitter& out) {
  // --- Priority 1: all 2-layer profiles (k = 1). ---
  if (cfg.max_layers >= 2) {
    for (int b1 : b_vals) {
      for (int a1 : a_ends) {
        for (int a2 : a_ends) {
          if (a1 + a2 >= b1) continue;
          if (out.full()) return;
          cand[0] = a1;
          cand[1] = a2;
          cand[2] = b1;
          out.offer(cand.first(3));
        }
      }
    }
  }

  // --- Priority 2: 3-layer profiles with free endpoints (the classic
  // weighted 3-augmentation with unmatched wings). ---
  if (cfg.max_layers >= 3) {
    cand[0] = cand[2] = 0;
    for (int a2 : a_vals) {
      for (int b1 : b_vals) {
        for (int b2 : b_vals) {
          if (b1 + b2 <= a2) continue;
          if (out.full()) return;
          cand[1] = a2;
          cand[3] = b1;
          cand[4] = b2;
          out.offer(cand.first(5));
        }
      }
    }
  }

  // --- Priority 3: uniform deep profiles (repeated-cycle walks and long
  // uniform paths; endpoints either free or matching the interior). The
  // free-end 3-layer profile repeats one of priority 2; the emitter
  // counts it and keeps the first. ---
  for (std::size_t layers = 3; layers <= cfg.max_layers; ++layers) {
    const int k = static_cast<int>(layers) - 1;
    const std::span<int> c = cand.first(2 * layers - 1);
    for (int a : a_vals) {
      for (int b : b_vals) {
        if (k * b > umax) continue;
        if (out.full()) return;
        std::fill(c.begin(), c.begin() + k + 1, a);
        std::fill(c.begin() + k + 1, c.end(), b);
        out.offer(c);
        if (out.full()) return;
        c[0] = c[layers - 1] = 0;
        out.offer(c);
      }
    }
  }
}

}  // namespace

std::vector<TauPair> pairs_for_values_if(const std::vector<int>& a_vals_in,
                                         const std::vector<int>& b_vals_in,
                                         const TauConfig& cfg, Rng& rng,
                                         const PairFilter& keep,
                                         std::size_t max_kept_layers) {
  if (max_kept_layers < 2) return {};
  const int umax = max_units(cfg);
  const std::vector<int> a_vals = unit_values(a_vals_in, umax);
  const std::vector<int> b_vals = unit_values(b_vals_in, umax);
  if (b_vals.empty()) return {};
  std::vector<int> a_ends{0};  // endpoint choices
  a_ends.insert(a_ends.end(), a_vals.begin(), a_vals.end());

  PairEmitter out(cfg, umax, keep);
  std::vector<int> cand(2 * std::max<std::size_t>(cfg.max_layers, 3) - 1);
  emit_profiles(a_vals, a_ends, b_vals, cfg, umax, cand, out);
  if (out.full() || a_vals.empty()) return std::move(out).take();
  // From here on emitted() < max_pairs, so the budgets cannot underflow.

  const BoundedSampler pick_end(a_ends.size());
  const BoundedSampler pick_a(a_vals.size());
  const BoundedSampler pick_b(b_vals.size());
  // The samplers draw from a local copy of the generator, which the
  // compiler keeps in registers across the trial loops; it is written
  // back once, after the last draw.
  Rng gen = rng;

  // Priorities 4 and 5 draw from the value sets, so a candidate meets
  // Table 1 (A)-(D) by construction: its depth is in range, a_ends holds
  // 0 and the a_vals, and a_vals and b_vals hold units in [1, umax]. Only
  // the budget (E) and the gain (F) are tested, on sums kept as the values
  // are drawn, and only a good candidate is hashed and kept.
  auto good_sums = [umax](int sum_a, int sum_b) {
    return sum_b <= umax && sum_b - sum_a >= 1;
  };

  // --- Priority 4: random samples of the general 3-layer space. ---
  if (cfg.max_layers >= 3 && max_kept_layers >= 3) {
    const std::size_t budget = (cfg.max_pairs - out.emitted()) / 2;
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      int c[5];  // tau_a[0..3), tau_b[0..2)
      c[0] = a_ends[pick_end(gen)];
      c[1] = a_vals[pick_a(gen)];
      c[2] = a_ends[pick_end(gen)];
      c[3] = b_vals[pick_b(gen)];
      c[4] = b_vals[pick_b(gen)];
      if (!good_sums(c[0] + c[1] + c[2], c[3] + c[4])) continue;
      out.keep(c);
      if (out.full()) break;
    }
  }

  // --- Priority 5: random non-uniform deep profiles. ---
  if (cfg.max_layers >= 4 && max_kept_layers >= 4) {
    const std::size_t budget = cfg.max_pairs - out.emitted();
    const BoundedSampler pick_depth(cfg.max_layers - 3);
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      const std::size_t layers = 4 + pick_depth(gen);
      int* a = cand.data();
      int* b = a + layers;
      a[0] = a_ends[pick_end(gen)];
      a[layers - 1] = a_ends[pick_end(gen)];
      int sum_a = a[0] + a[layers - 1];
      for (std::size_t t = 1; t + 1 < layers; ++t) {
        sum_a += a[t] = a_vals[pick_a(gen)];
      }
      int sum_b = 0;
      for (std::size_t t = 0; t + 1 < layers; ++t) {
        sum_b += b[t] = b_vals[pick_b(gen)];
      }
      if (!good_sums(sum_a, sum_b)) continue;
      out.keep(Flat(cand).first(2 * layers - 1));
      if (out.full()) break;
    }
  }
  rng = gen;
  return std::move(out).take();
}

std::vector<TauPair> pairs_for_values(const std::vector<int>& a_vals,
                                      const std::vector<int>& b_vals,
                                      const TauConfig& cfg, Rng& rng) {
  return pairs_for_values_if(a_vals, b_vals, cfg, rng, {}, cfg.max_layers);
}

}  // namespace wmatch::core
