#include "api/registry.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "util/json.h"
#include "util/require.h"

namespace wmatch::api {

// Defined in api/solvers.cpp; called exactly once from instance(). Explicit
// registration (rather than pure static-init registrars) keeps the built-ins
// alive through static-library linking, where a TU nothing references would
// be dropped along with its initializers.
void register_builtin_solvers(Registry& registry);

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    register_builtin_solvers(*r);
    return r;
  }();
  return *registry;
}

void Registry::add(SolverInfo info, SolveFn fn) {
  WMATCH_REQUIRE(!info.name.empty(), "solver name must be non-empty");
  WMATCH_REQUIRE(!contains(info.name),
                 "duplicate solver registration '" + info.name + "'");
  entries_.push_back({std::move(info), std::move(fn)});
}

bool Registry::contains(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.info.name == name; });
}

const Registry::Entry& Registry::entry(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.info.name == name) return e;
  }
  WMATCH_REQUIRE(false, "unknown solver '" + name +
                            "' (see api::Registry::list or `wmatch_cli list`)");
  return entries_.front();  // unreachable
}

const SolverInfo& Registry::info(const std::string& name) const {
  return entry(name).info;
}

const SolveFn& Registry::fn(const std::string& name) const {
  return entry(name).fn;
}

std::vector<SolverInfo> Registry::list() const {
  std::vector<SolverInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info);
  std::sort(out.begin(), out.end(),
            [](const SolverInfo& a, const SolverInfo& b) {
              return a.name < b.name;
            });
  return out;
}

void check_epsilon(double epsilon, std::string_view what) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument(std::string(what) +
                                " must be in (0,1), got " +
                                util::json_number(epsilon));
  }
}

void check_delta(double delta, std::string_view what) {
  if (!(delta >= 0.0 && delta < 1.0)) {
    throw std::invalid_argument(std::string(what) +
                                " must be in [0,1) (0 = epsilon/2), got " +
                                util::json_number(delta));
  }
}

Solver::Solver(const std::string& algorithm) : name_(algorithm) {
  (void)Registry::instance().info(algorithm);  // validate eagerly
}

SolveResult Solver::solve(const Instance& inst, const SolverSpec& spec) const {
  const SolveFn& fn = Registry::instance().fn(name_);
  // Wall time flows through obs/ (the one subsystem that reads clocks —
  // scripts/lint_invariants.py enforces this) so solver code stays a
  // deterministic function of the seed.
  const std::uint64_t t0 = obs::monotonic_ns();
  SolveResult result = fn(inst, spec);
  result.algorithm = name_;
  result.cost.wall_ms = static_cast<double>(obs::monotonic_ns() - t0) / 1e6;
  return result;
}

}  // namespace wmatch::api
