// The unified solver facade (tentpole of ISSUE 2).
//
// One call shape for every algorithm × model in the library:
//
//   api::Instance inst = api::generate_instance({.n = 1000, .m = 6000});
//   api::SolverSpec spec;
//   spec.epsilon = 0.1;
//   api::SolveResult r = api::Solver("reduction-mpc").solve(inst, spec);
//
// The result carries the matching plus a normalized CostReport, so the
// paper's complexity claims (streaming passes, MPC rounds, semi-streaming
// memory, black-box invocations) are reported identically regardless of
// which backend produced them. Algorithms are looked up in a string-keyed
// registry (api/registry.h); the built-in solvers self-register, and new
// backends (sharded, batched, remote) attach at the same seam without
// touching call sites.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "api/instance.h"
#include "graph/matching.h"
#include "runtime/runtime.h"

namespace wmatch::api {

/// Normalized cost accounting across models. Fields that do not apply to
/// the producing model stay 0; `model` says which ones are meaningful:
///   "streaming": passes, memory_peak_words (stored words, semi-streaming)
///   "mpc":       rounds, memory_peak_words (peak per-machine words),
///                communication_words
///   "offline":   wall_ms only
/// bb_* fields are populated by reduction-based solvers in every model.
struct CostReport {
  std::string model;                     ///< "streaming" | "mpc" | "offline"
  std::size_t passes = 0;                ///< streaming passes (parallel charge)
  std::size_t rounds = 0;                ///< MPC rounds (parallel charge)
  /// Peak stored words under the library's accounting convention (one
  /// stored edge = one word; see streaming/memory_meter.h and
  /// mpc::MpcConfig::machine_memory_words), so streaming and MPC runs
  /// are directly comparable. 0 means the solver does not meter its
  /// storage (currently only the offline solvers).
  std::size_t memory_peak_words = 0;
  std::size_t communication_words = 0;   ///< MPC total traffic
  std::size_t bb_invocations = 0;        ///< Unw-Bip-Matching calls
  std::size_t bb_max_invocation_cost = 0;  ///< heaviest single call
  double wall_ms = 0.0;                  ///< host wall clock (informational)
};

struct SolveResult {
  std::string algorithm;
  Matching matching;
  CostReport cost;
  /// Solver-specific extras (iterations, stack sizes, augmentation counts,
  /// ...) in insertion order, for tables and JSON reports.
  std::vector<std::pair<std::string, double>> stats;

  /// The stat named `name`, or `fallback` if the solver did not emit it.
  double stat(std::string_view name, double fallback = 0.0) const {
    for (const auto& [key, value] : stats) {
      if (key == name) return value;
    }
    return fallback;
  }
};

// ---- Model-specific knobs (typed variant on SolverSpec) ----

/// MPC cluster sizing; 0 selects the paper's regime from the instance
/// (Gamma = max(2, m/n) machines, S = 24 n words).
struct MpcKnobs {
  std::size_t num_machines = 0;
  std::size_t machine_memory_words = 0;
};

/// Random-arrival single-pass knobs (Rand-Arr-Matching / Theorem 3.4).
struct RandomArrivalKnobs {
  /// Prefix fraction. 0 selects the solver's default: the paper's
  /// p = 100/log n formula for "rand-arrival", the fixed p = 0.05 of
  /// UnweightedRandomArrivalConfig for "unw-rand-arrival" (no formula
  /// exists for the unweighted variant).
  double p = 0.0;
  double beta = 0.1;  ///< Unw-3-Aug-Paths parameter (unweighted variant)
};

struct SolverSpec {
  double epsilon = 0.1;  ///< target approximation for (1-eps) reductions
  double delta = 0.0;    ///< black-box slack; 0 selects epsilon/2
  std::uint64_t seed = 1;  ///< all solver randomness derives from this
  runtime::RuntimeConfig runtime;  ///< host-parallelism knob
  std::variant<std::monostate, MpcKnobs, RandomArrivalKnobs> knobs;

  /// Returns the knob struct of type T, or a default-constructed one when
  /// the variant holds something else.
  template <typename T>
  T knobs_or_default() const {
    if (const T* k = std::get_if<T>(&knobs)) return *k;
    return T{};
  }
};

/// Range checks for the accuracy knobs, run where input is parsed (CLI
/// flags, job lines) so a bad value is an input error instead of a
/// requirement failure deep inside a solver. epsilon must lie in (0,1);
/// delta in [0,1), 0 selecting epsilon/2. Both throw std::invalid_argument
/// naming `what` (the flag or job key the value came from).
void check_epsilon(double epsilon, std::string_view what);
void check_delta(double delta, std::string_view what);

/// Facade: looks the algorithm up in the registry at construction (throws
/// std::invalid_argument for unknown names) and runs it. `solve` fills
/// `algorithm` and `cost.wall_ms`; everything else comes from the backend.
class Solver {
 public:
  explicit Solver(const std::string& algorithm);

  SolveResult solve(const Instance& inst, const SolverSpec& spec = {}) const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// One-shot convenience.
inline SolveResult solve(const std::string& algorithm, const Instance& inst,
                         const SolverSpec& spec = {}) {
  return Solver(algorithm).solve(inst, spec);
}

}  // namespace wmatch::api
