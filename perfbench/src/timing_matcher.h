// TimingMatcher: a decorator over core::UnweightedMatcher that times every
// black-box call from outside the library.
//
// It forwards solve, fork_for_class and merge_class to the wrapped matcher
// (so MpcMatcher's merge of its simulated cluster still runs) and mirrors
// each call's model cost through charge_invocation, so its own counters
// equal the wrapped matcher's and a reduction run through it reports the
// same CostReport. Forks wrap the inner matcher's forks and carry their own
// clock, so classes running concurrently never share a timer; merge_class
// folds a fork's time back at the round barrier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/matcher.h"

namespace perfbench {

class TimingMatcher final : public wmatch::core::UnweightedMatcher {
 public:
  explicit TimingMatcher(wmatch::core::UnweightedMatcher& inner)
      : inner_(&inner) {}

  Matching solve(const GraphView& g, const std::vector<char>& side,
                 double delta) override {
    const std::size_t cost_before = inner_->total_cost();
    const std::uint64_t t0 = now_ns();
    Matching m = inner_->solve(g, side, delta);
    solve_ns_ += now_ns() - t0;
    charge_invocation(inner_->total_cost() - cost_before);
    return m;
  }

  std::unique_ptr<UnweightedMatcher> fork_for_class(
      std::uint64_t seed, wmatch::runtime::Arena* scratch) override {
    std::unique_ptr<UnweightedMatcher> sub = inner_->fork_for_class(seed, scratch);
    if (!sub) return nullptr;
    return std::unique_ptr<UnweightedMatcher>(new TimingMatcher(std::move(sub)));
  }

  void merge_class(const UnweightedMatcher& sub) override {
    UnweightedMatcher::merge_class(sub);
    const auto& timed = dynamic_cast<const TimingMatcher&>(sub);
    inner_->merge_class(*timed.inner_);
    solve_ns_ += timed.solve_ns_;
  }

  /// Wall time spent inside the wrapped solve, this matcher and merged
  /// forks included.
  double solve_ms() const { return static_cast<double>(solve_ns_) / 1e6; }

 private:
  explicit TimingMatcher(std::unique_ptr<UnweightedMatcher> owned)
      : owned_(std::move(owned)), inner_(owned_.get()) {}

  std::unique_ptr<UnweightedMatcher> owned_;  ///< forks only
  UnweightedMatcher* inner_;
  std::uint64_t solve_ns_ = 0;
};

}  // namespace perfbench
