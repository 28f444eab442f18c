// Shared helpers of wmatch_perf: clocks, order statistics, an
// output check for matchings that does not trust the library's own
// validators, and the one-line JSON report every subcommand prints for
// run.py.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "api/instance.h"
#include "gen/generators.h"
#include "gen/weights.h"
#include "graph/graph_view.h"
#include "graph/matching.h"
#include "host_probe.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

using wmatch::Edge;
using wmatch::GraphView;
using wmatch::Matching;
using wmatch::Vertex;
using wmatch::Weight;

inline std::uint64_t now_ns() { return wmatch::obs::monotonic_ns(); }

inline double ms_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

/// Nearest-rank q-quantile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[idx];
}

/// Median (mean of the middle two for even sizes); 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Checks `m` against `g` without the library's validators: every edge is
/// an edge of g with the same weight, no vertex is covered twice, and the
/// re-summed weight equals `reported_weight`. Returns "" when the matching
/// passes, otherwise the first violation.
inline std::string check_matching(const GraphView& g, const Matching& m,
                                  Weight reported_weight) {
  std::vector<char> covered(g.num_vertices(), 0);
  Weight sum = 0;
  for (const Edge& e : m.edges()) {
    if (e.u >= g.num_vertices() || e.v >= g.num_vertices() || e.u == e.v) {
      return "edge with a bad endpoint";
    }
    if (covered[e.u] || covered[e.v]) return "vertex covered twice";
    covered[e.u] = covered[e.v] = 1;
    const auto nbrs = g.neighbors(e.u);
    const auto ws = g.incident_weights(e.u);
    bool found = false;
    for (std::size_t i = 0; i < nbrs.size() && !found; ++i) {
      found = nbrs[i] == e.v && ws[i] == e.w;
    }
    if (!found) return "edge not in the graph";
    sum += e.w;
  }
  if (sum != reported_weight) return "weight does not re-sum";
  return "";
}

/// Peak resident set of this process image in MB (VmHWM), 0 when
/// /proc is unavailable. Unlike getrusage's maxrss it excludes the image
/// of the process that spawned this one.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// A JSON number with every significant digit a double carries.
inline std::string full_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The one-line JSON document a subcommand prints last. `e2e` and `layers`
/// hold metric values by name; `table` holds the per-layer rows (name,
/// self ms, total ms, count); `cells` holds one JSON object per solve cell
/// for run.py's baseline comparison.
struct Report {
  std::string workload;
  std::size_t attempted = 0;
  std::size_t refused = 0;  ///< overload refusals at a fixed rate
  std::vector<std::string> errors;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  struct Row {
    std::string name;
    double self_ms, total_ms, count;
  };
  std::vector<Row> table;
  /// Traced count -> (traced value, untraced value); run.py requires
  /// the two to be equal.
  std::map<std::string, std::pair<double, double>> counts;
  std::vector<std::string> cells;

  void fail(std::string what) { errors.push_back(std::move(what)); }

  void print(std::ostream& os) const {
    using wmatch::util::write_json_string;
    auto write_map = [&](const std::map<std::string, double>& m) {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : m) {
        if (!first) os << ',';
        first = false;
        write_json_string(os, k);
        os << ':' << full_number(v);
      }
      os << '}';
    };
    os << "{\"workload\":";
    write_json_string(os, workload);
    os << ",\"attempted\":" << attempted << ",\"refused\":" << refused
       << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (i) os << ',';
      write_json_string(os, errors[i]);
    }
    os << "],\"e2e\":";
    write_map(e2e);
    os << ",\"layers\":";
    write_map(layers);
    os << ",\"table\":[";
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (i) os << ',';
      os << '[';
      write_json_string(os, table[i].name);
      os << ',' << full_number(table[i].self_ms) << ','
         << full_number(table[i].total_ms) << ','
         << full_number(table[i].count) << ']';
    }
    os << "],\"counts\":{";
    bool first_count = true;
    for (const auto& [k, v] : counts) {
      if (!first_count) os << ',';
      first_count = false;
      write_json_string(os, k);
      os << ":[" << full_number(v.first) << ',' << full_number(v.second)
         << ']';
    }
    os << "},\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      os << cells[i];
    }
    os << "]}\n";
  }
};

/// gen/ and graph/ timed apart for one random-family GenSpec: replays
/// api::generate_instance's generator + weight steps (gen_ms) and the CSR
/// freeze (freeze_ms), and checks the replayed graph equals `expect`'s.
struct GenTiming {
  double gen_ms = 0.0;
  double freeze_ms = 0.0;
  bool same_graph = false;
};

inline GenTiming time_generation(const wmatch::api::GenSpec& spec,
                                 const GraphView& expect) {
  namespace gen = wmatch::gen;
  GenTiming t;
  wmatch::Rng rng(spec.seed);
  std::uint64_t t0 = now_ns();
  wmatch::Graph g = spec.generator == "bipartite"
                        ? gen::random_bipartite(spec.n / 2, spec.n - spec.n / 2,
                                                spec.m, rng)
                        : gen::erdos_renyi(spec.n, spec.m, rng);
  g = gen::assign_weights(g, spec.weights, spec.max_weight, rng);
  t.gen_ms = ms_since(t0);
  t0 = now_ns();
  const GraphView view(std::move(g));
  t.freeze_ms = ms_since(t0);
  t.same_graph = view.num_vertices() == expect.num_vertices() &&
                 std::equal(view.edges().begin(), view.edges().end(),
                            expect.edges().begin(), expect.edges().end(),
                            [](const Edge& a, const Edge& b) {
                              return a.u == b.u && a.v == b.v && a.w == b.w;
                            });
  return t;
}

/// The thread count of the parallel passes (norm_s.t2; on serve, requests
/// in flight). Two threads leave half of the host's CPUs to the rest of the
/// machine: at four threads on a four-CPU shared host the parallel passes
/// measured the scheduler more than the pool.
constexpr std::size_t kParallelThreads = 2;

/// Paces a closed-loop workload's passes, which alternate --threads 1 and
/// kParallelThreads: the first pass of each kind always runs, and a later
/// one starts only while a pass as long as the last of its kind still ends
/// before the deadline, so a run keeps to its time budget.
class PassPacer {
 public:
  explicit PassPacer(double seconds)
      : deadline_ns_(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)) {}

  /// Called before pass `pass` (0, 1, 2, ...); false ends the run.
  bool next(std::size_t pass) {
    const std::uint64_t now = now_ns();
    if (pass > 0) last_ns_[(pass - 1) % 2] = now - start_ns_;
    start_ns_ = now;
    return pass < 2 || now + last_ns_[pass % 2] <= deadline_ns_;
  }

 private:
  std::uint64_t deadline_ns_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_ns_[2] = {0, 0};  ///< last pass of each kind
};

/// End-to-end metrics of a closed-loop workload from each cell's latency,
/// cell_ms[t][cell] at --threads 1 (t=0) and kParallelThreads (t=1), and
/// the run's HostProbe:
///   norm_s.t1/.t2   wall_s scaled to the reference host speed (gated)
///   wall_s.t1/.t2   sum of the cells' latencies, one pass over the solve
///                   set, as measured
///   p50_ms, p99_ms  nearest-rank percentiles over the cells' latencies,
///                   .lo at t1 and .hi at t2 (the median follows whichever
///                   cell ranks in the middle)
///   sat_rps         solves per second at t2 (a closed loop always runs
///                   saturated): cells / wall_s.t2
///   probe_ms        the probe's median time in this run
inline void closed_loop_metrics(const std::vector<double> (&cell_ms)[2],
                                const HostProbe& probe, Report& report) {
  for (std::size_t ti = 0; ti < 2; ++ti) {
    double sum_ms = 0;
    for (double ms : cell_ms[ti]) sum_ms += ms;
    const std::string t = ti == 0 ? ".t1" : ".t2";
    const std::string load = ti == 0 ? ".lo" : ".hi";
    report.e2e["wall_s" + t] = sum_ms / 1e3;
    report.e2e["norm_s" + t] = sum_ms / 1e3 * probe.factor();
    report.e2e["p50_ms" + load] = percentile(cell_ms[ti], 0.5);
    report.e2e["p99_ms" + load] = percentile(cell_ms[ti], 0.99);
    if (ti == 1) {
      report.e2e["sat_rps"] =
          static_cast<double>(cell_ms[ti].size()) / sum_ms * 1e3;
    }
  }
  report.e2e["probe_ms"] = probe.median_ms();
}

/// setup_s (scaled to the reference host speed, gated) and setup_s.raw
/// from a run's set-up times in seconds.
inline void setup_metrics(const std::vector<double>& setup_s,
                          const HostProbe& probe, Report& report) {
  report.e2e["setup_s.raw"] = median(setup_s);
  report.e2e["setup_s"] = median(setup_s) * probe.factor();
}

/// The runtime pool's registry counters (pool.busy_ns, pool.steals),
/// accumulated over the parallel solves of a closed-loop workload.
struct PoolUse {
  std::uint64_t busy_ns = 0, steals = 0;
  double solve_ms = 0;  ///< wall time of the solves measured

  struct Mark {
    std::uint64_t busy_ns, steals;
  };
  static Mark mark() {
    return {wmatch::obs::counter("pool.busy_ns").value(),
            wmatch::obs::counter("pool.steals").value()};
  }
  /// Adds the counter deltas since `m` for one solve that took `ms`.
  void add(const Mark& m, double ms) {
    const Mark now = mark();
    busy_ns += now.busy_ns - m.busy_ns;
    steals += now.steals - m.steals;
    solve_ms += ms;
  }
  /// runtime.pool.busy_frac (busy share of the kParallelThreads threads)
  /// and .steals.
  void report(Report& r) const {
    r.layers["runtime.pool.busy_frac"] =
        solve_ms > 0 ? static_cast<double>(busy_ns) / 1e6 /
                           (solve_ms * static_cast<double>(kParallelThreads))
                     : 0.0;
    r.layers["runtime.pool.steals"] = static_cast<double>(steals);
  }
};

/// Command-line options shared by the workload subcommands.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int port = 0;  ///< serve-client: server port
  /// serve-client: "warm" (fill the cache and exit), "closed" (warm +
  /// closed-loop passes) or "all".
  std::string phases = "all";
};

Report run_reduce(const Options& opt);
Report run_stream(const Options& opt);
Report run_serve_client(const Options& opt);
/// TimingMatcher identity check (hk and mpc, --threads 1 and 4) on one
/// small instance; appends a failure to `report` on any mismatch.
void timing_matcher_selftest(Report& report);

}  // namespace perfbench
