#include "core/tau.h"

#include <algorithm>
#include <cmath>

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
bool good_pair(const TauPair& pair, std::size_t max_layers, int umax) {
  const std::size_t layers = pair.tau_a.size();
  // (A) depth, (B) arity.
  if (layers < 2 || layers > max_layers) return false;
  if (pair.tau_b.size() + 1 != layers) return false;
  // (C) a_t >= 0, (D) interior a_t >= 1 and every b_t >= 1.
  int sum_a = 0;
  for (std::size_t t = 0; t < layers; ++t) {
    const int a = pair.tau_a[t];
    if (a < 0) return false;
    if (a < 1 && t != 0 && t + 1 != layers) return false;
    sum_a += a;
  }
  int sum_b = 0;
  for (int b : pair.tau_b) {
    if (b < 1) return false;
    sum_b += b;
  }
  // (E) unit budget, (F) gain of at least one unit.
  return sum_b <= umax && sum_b - sum_a >= 1;
}

}  // namespace

bool is_good_pair(const TauPair& pair, const TauConfig& cfg) {
  return good_pair(pair, cfg.max_layers, max_units(cfg));
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

/// The output of pairs_for_values, deduplicated on insert. `emitted`
/// counts every good candidate, duplicates included: that raw count is
/// what the max_pairs cap and the sampling budgets are measured in, so
/// the draw sequence does not depend on which candidates repeat.
/// Membership is a flat open-addressing table of indices into `pairs`
/// (slot value index + 1, 0 = empty, load factor <= 1/2).
class PairEmitter {
 public:
  PairEmitter(const TauConfig& cfg, int umax)
      : max_layers_(cfg.max_layers), max_pairs_(cfg.max_pairs), umax_(umax),
        slots_(256, 0) {}

  bool full() const { return emitted_ >= max_pairs_; }
  std::size_t emitted() const { return emitted_; }

  /// Counts and keeps `cand` if it is good; a repeat is counted but not
  /// kept.
  void offer(const TauPair& cand) {
    if (!good_pair(cand, max_layers_, umax_)) return;
    ++emitted_;
    if (2 * (pairs_.size() + 1) > slots_.size()) grow();
    std::uint32_t* slot = find(cand);
    if (*slot != 0) return;
    pairs_.push_back(cand);
    *slot = static_cast<std::uint32_t>(pairs_.size());
  }

  std::vector<TauPair> take() && { return std::move(pairs_); }

 private:
  static std::uint64_t hash(const TauPair& p) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a
    std::uint64_t h = p.tau_a.size();
    for (int a : p.tau_a) h = (h ^ static_cast<std::uint32_t>(a)) * kPrime;
    for (int b : p.tau_b) h = (h ^ static_cast<std::uint32_t>(b)) * kPrime;
    return h ^ (h >> 29);
  }

  /// The slot holding `p`, or the empty slot where it belongs.
  std::uint32_t* find(const TauPair& p) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(p) & mask;; i = (i + 1) & mask) {
      const std::uint32_t s = slots_[i];
      if (s == 0 || pairs_[s - 1] == p) return &slots_[i];
    }
  }

  void grow() {
    slots_.assign(2 * slots_.size(), 0);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      *find(pairs_[i]) = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::size_t max_layers_, max_pairs_;
  int umax_;
  std::size_t emitted_ = 0;
  std::vector<TauPair> pairs_;
  std::vector<std::uint32_t> slots_;
};

/// Priorities 1-3 of pairs_for_values: the deterministic profiles, each
/// filled into one scratch pair. Stops as soon as the cap is reached.
void emit_profiles(const std::vector<int>& a_vals,
                   const std::vector<int>& a_ends,
                   const std::vector<int>& b_vals, const TauConfig& cfg,
                   int umax, PairEmitter& out) {
  TauPair cand;

  // --- Priority 1: all 2-layer profiles (k = 1). ---
  if (cfg.max_layers >= 2) {
    cand.tau_a.assign(2, 0);
    cand.tau_b.assign(1, 0);
    for (int b1 : b_vals) {
      for (int a1 : a_ends) {
        for (int a2 : a_ends) {
          if (a1 + a2 >= b1) continue;
          if (out.full()) return;
          cand.tau_a[0] = a1;
          cand.tau_a[1] = a2;
          cand.tau_b[0] = b1;
          out.offer(cand);
        }
      }
    }
  }

  // --- Priority 2: 3-layer profiles with free endpoints (the classic
  // weighted 3-augmentation with unmatched wings). ---
  if (cfg.max_layers >= 3) {
    cand.tau_a.assign(3, 0);
    cand.tau_b.assign(2, 0);
    for (int a2 : a_vals) {
      for (int b1 : b_vals) {
        for (int b2 : b_vals) {
          if (b1 + b2 <= a2) continue;
          if (out.full()) return;
          cand.tau_a[1] = a2;
          cand.tau_b[0] = b1;
          cand.tau_b[1] = b2;
          out.offer(cand);
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
    for (int a : a_vals) {
      for (int b : b_vals) {
        if (k * b > umax) continue;
        if (out.full()) return;
        cand.tau_a.assign(layers, a);
        cand.tau_b.assign(static_cast<std::size_t>(k), b);
        out.offer(cand);
        if (out.full()) return;
        cand.tau_a.front() = 0;
        cand.tau_a.back() = 0;
        out.offer(cand);
      }
    }
  }
}

}  // namespace

std::vector<TauPair> pairs_for_values(const std::vector<int>& a_vals_in,
                                      const std::vector<int>& b_vals_in,
                                      const TauConfig& cfg, Rng& rng) {
  const int umax = max_units(cfg);
  const std::vector<int> a_vals = unit_values(a_vals_in, umax);
  const std::vector<int> b_vals = unit_values(b_vals_in, umax);
  if (b_vals.empty()) return {};
  std::vector<int> a_ends{0};  // endpoint choices
  a_ends.insert(a_ends.end(), a_vals.begin(), a_vals.end());

  PairEmitter out(cfg, umax);
  emit_profiles(a_vals, a_ends, b_vals, cfg, umax, out);
  if (out.full() || a_vals.empty()) return std::move(out).take();
  // From here on emitted() < max_pairs, so the budgets cannot underflow.

  const BoundedSampler pick_end(a_ends.size());
  const BoundedSampler pick_a(a_vals.size());
  const BoundedSampler pick_b(b_vals.size());
  TauPair cand;

  // --- Priority 4: random samples of the general 3-layer space. ---
  if (cfg.max_layers >= 3) {
    const std::size_t budget = (cfg.max_pairs - out.emitted()) / 2;
    cand.tau_a.assign(3, 0);
    cand.tau_b.assign(2, 0);
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      cand.tau_a[0] = a_ends[pick_end(rng)];
      cand.tau_a[1] = a_vals[pick_a(rng)];
      cand.tau_a[2] = a_ends[pick_end(rng)];
      cand.tau_b[0] = b_vals[pick_b(rng)];
      cand.tau_b[1] = b_vals[pick_b(rng)];
      out.offer(cand);
      if (out.full()) break;
    }
  }

  // --- Priority 5: random non-uniform deep profiles. ---
  if (cfg.max_layers >= 4) {
    const std::size_t budget = cfg.max_pairs - out.emitted();
    const BoundedSampler pick_depth(cfg.max_layers - 3);
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      const std::size_t layers = 4 + pick_depth(rng);
      cand.tau_a.resize(layers);
      cand.tau_b.resize(layers - 1);
      cand.tau_a.front() = a_ends[pick_end(rng)];
      cand.tau_a.back() = a_ends[pick_end(rng)];
      for (std::size_t t = 1; t + 1 < layers; ++t) {
        cand.tau_a[t] = a_vals[pick_a(rng)];
      }
      for (int& b : cand.tau_b) b = b_vals[pick_b(rng)];
      out.offer(cand);
      if (out.full()) break;
    }
  }
  return std::move(out).take();
}

std::vector<TauPair> generate_good_pairs(const TauConfig& cfg, Rng& rng) {
  const int umax = max_units(cfg);
  std::vector<int> all;
  all.reserve(static_cast<std::size_t>(umax));
  for (int v = 1; v <= umax; ++v) all.push_back(v);
  return pairs_for_values(all, all, cfg, rng);
}

}  // namespace wmatch::core
