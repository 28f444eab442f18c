// Test helper: good tau pairs over the full unit grid, for tests that
// need many pairs of every depth without a graph to draw values from.
#pragma once

#include <vector>

#include "core/tau.h"
#include "util/rng.h"

namespace wmatch::test {

/// pairs_for_values with every unit value 1..max_units(cfg) matched and
/// unmatched: exhaustive for 2 and 3 layers (budget permitting), uniform
/// profiles for deeper layered graphs, plus `rng`-sampled non-uniform
/// deep profiles. All returned pairs satisfy is_good_pair.
inline std::vector<core::TauPair> generate_good_pairs(
    const core::TauConfig& cfg, Rng& rng) {
  std::vector<int> all;
  for (int v = 1; v <= core::max_units(cfg); ++v) all.push_back(v);
  return core::pairs_for_values(all, all, cfg, rng);
}

}  // namespace wmatch::test
