// HostProbe: a fixed reference computation that measures how fast the host
// runs at the moment, so that solve times can be reported at one reference
// host speed.
//
// On a shared host the same solve's time drifts by 20-30% over minutes as
// the machine's load changes, and no statistic over one run's samples
// absorbs that. The probe (Kuhn's augmenting-path matching on a fixed
// random bipartite graph, 1000+1000 vertices and 4000 edges: the same mix
// of pointer chasing and branches as the library's solvers, about 1.4 ms)
// runs between the measured solves, and a run's times are scaled by
// kReferenceMs / (median probe time of the run). The probe is compiled
// apart from the library (its own target in CMakeLists.txt), so no change
// to the library or its compile options moves it.
#pragma once

#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// The probe's median time on the host the benchmark was tuned on (a
  /// 4-CPU Xeon microVM): scaled times read in seconds at that speed.
  static constexpr double kReferenceMs = 1.4;

  HostProbe();

  /// Runs the probe once and records its time.
  void sample();
  /// Median probe time so far, in ms (kReferenceMs before any sample).
  double median_ms() const;
  /// kReferenceMs / median_ms(): multiply a time measured in this run by
  /// it to get the time at the reference speed.
  double factor() const { return kReferenceMs / median_ms(); }
  std::size_t samples() const { return ms_.size(); }

 private:
  bool augment(int u);

  std::vector<std::vector<int>> adj_;  ///< left vertex -> right neighbours
  std::vector<int> match_;             ///< right vertex -> left, or -1
  std::vector<int> seen_;              ///< right vertex -> last visit stamp
  int stamp_ = 0;
  std::vector<double> ms_;
};

}  // namespace perfbench
