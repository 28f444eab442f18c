// Named SweepSpecs: the paper's parametric experiments (e1 through e13)
// expressed as declarative grids, plus the small deterministic "ci" grid
// the perf-regression gate diffs against bench/baselines/ci_baseline.json.
// `wmatch_cli bench --preset=<name>` resolves through here, so local runs
// and CI run the exact same grids.
#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.h"

namespace wmatch::sweep {

/// Preset names ("ci", "e1", ..., "e13").
const std::vector<std::string>& preset_names();
bool is_known_preset(const std::string& name);

/// The named SweepSpec; throws std::invalid_argument on unknown names.
SweepSpec preset(const std::string& name);

}  // namespace wmatch::sweep
