#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/tau.h"
#include "good_pairs.h"
#include "hot_path.h"
#include "util/rng.h"

namespace wmatch {
namespace {

using core::TauConfig;
using core::TauPair;

/// Reference for pairs_for_values: the original allocate-per-candidate
/// enumeration with an O(P^2) stable dedup, applied on the early-return
/// (cap reached) paths as well as at the end.
std::vector<TauPair> reference_pairs(const std::vector<int>& a_vals_in,
                                     const std::vector<int>& b_vals_in,
                                     const TauConfig& cfg, Rng& rng) {
  const int umax = core::max_units(cfg);
  std::vector<int> a_vals, b_vals;
  for (int a : a_vals_in) {
    if (a >= 1 && a <= umax) a_vals.push_back(a);
  }
  for (int b : b_vals_in) {
    if (b >= 1 && b <= umax) b_vals.push_back(b);
  }
  std::sort(a_vals.begin(), a_vals.end());
  a_vals.erase(std::unique(a_vals.begin(), a_vals.end()), a_vals.end());
  std::sort(b_vals.begin(), b_vals.end());
  b_vals.erase(std::unique(b_vals.begin(), b_vals.end()), b_vals.end());

  std::vector<TauPair> out;
  auto dedup = [&] {
    std::vector<TauPair> kept;
    for (auto& p : out) {
      if (std::find(kept.begin(), kept.end(), p) == kept.end()) {
        kept.push_back(std::move(p));
      }
    }
    return kept;
  };
  if (b_vals.empty()) return out;
  std::vector<int> a_ends{0};
  a_ends.insert(a_ends.end(), a_vals.begin(), a_vals.end());

  auto push_if_good = [&](TauPair pair) {
    if (out.size() >= cfg.max_pairs) return false;
    if (core::is_good_pair(pair, cfg)) out.push_back(std::move(pair));
    return out.size() < cfg.max_pairs;
  };

  if (cfg.max_layers >= 2) {
    for (int b1 : b_vals) {
      for (int a1 : a_ends) {
        for (int a2 : a_ends) {
          if (a1 + a2 >= b1) continue;
          if (!push_if_good({{a1, a2}, {b1}})) return dedup();
        }
      }
    }
  }
  if (cfg.max_layers >= 3) {
    for (int a2 : a_vals) {
      for (int b1 : b_vals) {
        for (int b2 : b_vals) {
          if (b1 + b2 <= a2) continue;
          if (!push_if_good({{0, a2, 0}, {b1, b2}})) return dedup();
        }
      }
    }
  }
  for (std::size_t layers = 3; layers <= cfg.max_layers; ++layers) {
    const int k = static_cast<int>(layers) - 1;
    for (int a : a_vals) {
      for (int b : b_vals) {
        if (k * b > umax) continue;
        TauPair interior;
        interior.tau_a.assign(layers, a);
        interior.tau_b.assign(static_cast<std::size_t>(k), b);
        if (!push_if_good(interior)) return dedup();
        TauPair free_ends = interior;
        free_ends.tau_a.front() = 0;
        free_ends.tau_a.back() = 0;
        if (!push_if_good(std::move(free_ends))) return dedup();
      }
    }
  }

  auto sample = [&](const std::vector<int>& vals) {
    return vals[rng.next_below(vals.size())];
  };
  if (cfg.max_layers >= 3 && !a_vals.empty()) {
    std::size_t budget =
        cfg.max_pairs > out.size() ? (cfg.max_pairs - out.size()) / 2 : 0;
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      TauPair pair{{sample(a_ends), sample(a_vals), sample(a_ends)},
                   {sample(b_vals), sample(b_vals)}};
      if (core::is_good_pair(pair, cfg)) {
        out.push_back(std::move(pair));
        if (out.size() >= cfg.max_pairs) break;
      }
    }
  }
  if (cfg.max_layers >= 4 && !a_vals.empty()) {
    std::size_t budget =
        cfg.max_pairs > out.size() ? cfg.max_pairs - out.size() : 0;
    for (std::size_t trial = 0; trial < 6 * budget; ++trial) {
      std::size_t layers = 4 + rng.next_below(cfg.max_layers - 3);
      TauPair pair;
      pair.tau_a.resize(layers);
      pair.tau_b.resize(layers - 1);
      pair.tau_a.front() = sample(a_ends);
      pair.tau_a.back() = sample(a_ends);
      for (std::size_t t = 1; t + 1 < layers; ++t) {
        pair.tau_a[t] = sample(a_vals);
      }
      for (auto& b : pair.tau_b) b = sample(b_vals);
      if (core::is_good_pair(pair, cfg)) {
        out.push_back(std::move(pair));
        if (out.size() >= cfg.max_pairs) break;
      }
    }
  }
  return dedup();
}

/// A random value set: `count` draws from [-1, hi] (out-of-range and
/// repeated values included, as pairs_for_values must filter them).
std::vector<int> random_values(Rng& rng, std::size_t count, int hi) {
  std::vector<int> vals;
  for (std::size_t i = 0; i < count; ++i) {
    vals.push_back(static_cast<int>(rng.next_int(-1, hi)));
  }
  return vals;
}

bool has_duplicates(const std::vector<TauPair>& pairs) {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      if (pairs[i] == pairs[j]) return true;
    }
  }
  return false;
}

TEST(Tau, QuantumFloorsAndClampsToOne) {
  TauConfig cfg;
  cfg.granularity = 0.125;
  EXPECT_EQ(core::quantum(1000, cfg), 125);
  EXPECT_EQ(core::quantum(2, cfg), 1);  // floor would be 0 -> clamp
  EXPECT_THROW(core::quantum(0, cfg), std::invalid_argument);
}

TEST(Tau, GoodPairAcceptsCanonicalExample) {
  TauConfig cfg;
  // 3 layers: a = (1,1,1), b = (2,2): sum b - sum a = 1 >= 1.
  EXPECT_TRUE(core::is_good_pair({{1, 1, 1}, {2, 2}}, cfg));
}

TEST(Tau, GoodPairRejectsArityMismatch) {
  TauConfig cfg;
  EXPECT_FALSE(core::is_good_pair({{1, 1}, {2, 2}}, cfg));          // (B)
  EXPECT_FALSE(core::is_good_pair({{1}, {}}, cfg));                 // (A)
}

TEST(Tau, GoodPairRejectsNegativeGainProfile) {
  TauConfig cfg;
  EXPECT_FALSE(core::is_good_pair({{2, 2, 2}, {3, 3}}, cfg));       // (F)
  EXPECT_TRUE(core::is_good_pair({{0, 3, 0}, {2, 2}}, cfg));        // 4-3=1 ok
}

TEST(Tau, GoodPairInteriorZeroRejected) {
  TauConfig cfg;
  cfg.max_layers = 5;
  EXPECT_FALSE(core::is_good_pair({{1, 0, 1}, {2, 2}}, cfg));       // (D)
}

TEST(Tau, GoodPairBudgetEnforced) {
  TauConfig cfg;
  cfg.granularity = 0.5;
  cfg.slack = 0.0;  // sum b <= 2 units
  EXPECT_TRUE(core::is_good_pair({{0, 0}, {1}}, cfg));
  EXPECT_FALSE(core::is_good_pair({{0, 0}, {3}}, cfg));             // (E)
}

TEST(Tau, GeneratedPairsAllGoodAndUnique) {
  TauConfig cfg;
  cfg.max_pairs = 800;
  Rng rng(1);
  auto pairs = test::generate_good_pairs(cfg, rng);
  EXPECT_GT(pairs.size(), 20u);
  EXPECT_LE(pairs.size(), cfg.max_pairs);
  for (const auto& p : pairs) {
    EXPECT_TRUE(core::is_good_pair(p, cfg));
  }
  EXPECT_FALSE(has_duplicates(pairs));
}

TEST(Tau, GenerationCoversDeepLayers) {
  TauConfig cfg;
  cfg.max_layers = 8;
  Rng rng(2);
  auto pairs = test::generate_good_pairs(cfg, rng);
  ASSERT_FALSE(pairs.empty());
  std::size_t deepest = 0;
  for (const auto& p : pairs) deepest = std::max(deepest, p.num_layers());
  EXPECT_GE(deepest, 6u);
}

TEST(Tau, BudgetCapRespected) {
  TauConfig cfg;
  cfg.max_pairs = 50;
  Rng rng(3);
  auto pairs = test::generate_good_pairs(cfg, rng);
  EXPECT_LE(pairs.size(), 50u);
}

TEST(Tau, InducedPairRoundsCorrectly) {
  // Matched weights round UP, unmatched round DOWN (soundness direction).
  TauPair p = core::induced_pair({5, 9}, {12}, 4);
  EXPECT_EQ(p.tau_a, (std::vector<int>{2, 3}));  // ceil(5/4), ceil(9/4)
  EXPECT_EQ(p.tau_b, (std::vector<int>{3}));     // floor(12/4)
}

TEST(Tau, InducedPairOfProfitableAugmentationIsGood) {
  TauConfig cfg;
  cfg.granularity = 0.1;
  Weight W = 100;
  Weight unit = core::quantum(W, cfg);  // 10
  // Augmentation: remove matched 30, 20; add unmatched 90.
  TauPair p = core::induced_pair({30, 20}, {90}, unit);
  EXPECT_TRUE(core::is_good_pair(p, cfg));
}

TEST(Tau, InducedPairArityChecked) {
  EXPECT_THROW(core::induced_pair({1, 2, 3}, {1}, 1), std::invalid_argument);
  EXPECT_THROW(core::induced_pair({1, 2}, {1}, 0), std::invalid_argument);
}

TEST(Tau, SoundnessInequalityInWeights) {
  // For any good pair, an alternating path respecting the thresholds has
  // positive gain: sum(b)*U - sum(a)*U >= U > 0.
  TauConfig cfg;
  cfg.max_pairs = 600;
  Rng rng(4);
  auto pairs = test::generate_good_pairs(cfg, rng);
  const Weight unit = 7;
  for (const auto& p : pairs) {
    Weight min_gain =
        unit * (std::accumulate(p.tau_b.begin(), p.tau_b.end(), Weight{0}) -
                std::accumulate(p.tau_a.begin(), p.tau_a.end(), Weight{0}));
    EXPECT_GE(min_gain, unit);
  }
}

TEST(Tau, PairsForValuesRestrictedToPresentWeights) {
  TauConfig cfg;
  Rng rng(5);
  // Only matched value 5 and unmatched value 3 exist.
  auto pairs = core::pairs_for_values({5}, {3}, cfg, rng);
  ASSERT_FALSE(pairs.empty());
  for (const auto& p : pairs) {
    EXPECT_TRUE(core::is_good_pair(p, cfg));
    for (int a : p.tau_a) EXPECT_TRUE(a == 0 || a == 5);
    for (int b : p.tau_b) EXPECT_EQ(b, 3);
  }
}

TEST(Tau, PairsForValuesEmptyWhenNoUnmatched) {
  TauConfig cfg;
  Rng rng(6);
  EXPECT_TRUE(core::pairs_for_values({1, 2}, {}, cfg, rng).empty());
}

TEST(Tau, PairsForValuesFindsRepeatedCycleProfile) {
  // The 4-cycle (3,4,3,4) with unit 1: a=3, b=4; the gainful profile needs
  // 5 uniform layers (Section 1.1.2's blow-up). It must be generated.
  TauConfig cfg;
  cfg.max_layers = 6;
  Rng rng(7);
  auto pairs = core::pairs_for_values({3}, {4}, cfg, rng);
  bool found = false;
  for (const auto& p : pairs) {
    if (p.num_layers() == 5 && p.tau_a == std::vector<int>{3, 3, 3, 3, 3} &&
        p.tau_b == std::vector<int>{4, 4, 4, 4}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Tau, PairsForValuesUniqueWhenCapHitEarly) {
  // Priority 3's free-end 3-layer profile {0,a,0},{b,b} repeats one of
  // priority 2; a cap reached inside priorities 1-3 must still return a
  // deduplicated list (the repeat costs a layered build and a black-box
  // call otherwise).
  for (std::size_t cap = 1; cap <= 400; ++cap) {
    TauConfig cfg;
    cfg.max_pairs = cap;
    Rng rng(1);
    const auto pairs = core::pairs_for_values({2, 3}, {2, 3, 4}, cfg, rng);
    ASSERT_FALSE(has_duplicates(pairs)) << "max_pairs=" << cap;
    ASSERT_LE(pairs.size(), cap);
  }
}

TEST(Tau, PairsForValuesMatchesReference) {
  // Same pairs in the same order, and the generator left in the same
  // state, across caps that stop in every priority and every depth limit.
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng values_rng(seed * 7919);
    std::vector<std::size_t> caps;
    for (std::size_t cap = 1; cap <= 600; ++cap) caps.push_back(cap);
    caps.push_back(4000);
    for (std::size_t cap : caps) {
      TauConfig cfg;
      cfg.max_pairs = cap;
      cfg.max_layers = 2 + (cap + seed) % 11;  // 2..12
      if (cap == 4000) cfg.max_layers = 2 + seed % 11;
      if (seed == 4) cfg.granularity = 0.2;  // a smaller unit budget
      const auto a_vals = random_values(values_rng, 1 + cap % 6, 18);
      const auto b_vals = random_values(values_rng, 1 + cap % 5, 18);
      Rng got_rng(seed * 1000 + cap), want_rng(seed * 1000 + cap);
      const auto got = core::pairs_for_values(a_vals, b_vals, cfg, got_rng);
      const auto want = reference_pairs(a_vals, b_vals, cfg, want_rng);
      ASSERT_EQ(got, want) << "seed " << seed << " max_pairs " << cap
                           << " max_layers " << cfg.max_layers;
      ASSERT_EQ(got_rng.next(), want_rng.next())
          << "seed " << seed << " max_pairs " << cap;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 4u * 601u);
}

TEST(Tau, HotPathKernelChecksumMatchesReference) {
  // bench_micro_kernels' tau-pairs kernel: same checksum as the reference
  // over the ci bipartite instance's classes.
  const bench::hot_path::Inputs in = bench::hot_path::ci_bipartite_inputs();
  ASSERT_GT(in.classes.size(), 5u);
  EXPECT_EQ(bench::hot_path::tau_pairs_checksum(in, core::pairs_for_values),
            bench::hot_path::tau_pairs_checksum(in, reference_pairs));
}

}  // namespace
}  // namespace wmatch
