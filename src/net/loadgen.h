// Open-loop load generator for the serve front end (ISSUE 8).
//
// `wmatch_cli loadgen` connects N client sockets to a running
// `wmatch_cli serve --listen` process and fires job requests with
// Poisson arrivals at a fixed target rate — open loop: the arrival
// schedule is drawn up front from a seeded Rng and does NOT slow down
// when the server does, so queueing delay shows up as end-to-end latency
// instead of being hidden by a politely-waiting client (closed-loop
// generators measure their own throttling; see docs/SERVING.md).
//
// Requests are the job lines of --jobs-file, cycled round-robin across
// arrivals and connections, each re-stamped with a unique id
// ("lg-<conn>-<k>") so responses — which arrive in completion order —
// can be matched back to their scheduled arrival times. End-to-end
// latency runs from that due time to the response, so a send that blocks
// or starts late counts against the server. Per-template latency lands
// in a schema-versioned BENCH JSON document (wall_ms.median = median e2e
// latency) that scripts/check_bench_regression.py gates on the solver
// counters echoed in the responses and scripts/append_bench_history.py
// reads as the serving-latency trajectory.
//
// Determinism: the arrival schedule is a pure function of --seed; solver
// counters in the responses are bit-identical to local runs (the serve
// determinism contract), so the regression gate is stable even though
// wall-clock latencies vary run to run.
//
// Tracing (ISSUE 10): when this process traces (loadgen --trace=FILE),
// every request is stamped with "trace":{"id":K,"sent_ns":T} (K = arrival
// index + 1, T = the client's obs::monotonic_ns), the send/receive path
// records client.connect / client.send / client.recv spans plus a
// client.request async span per request, and a "req" flow begins at the
// send and ends at the response. A traced server continues that flow
// through net.admit / service.job / service.solve / net.request, so
// scripts/merge_traces.py can fuse the two files into one timeline with
// the client and server halves of each request connected by flow arrows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/job.h"

namespace wmatch::net {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  int port = 0;                 ///< serve --listen port (required)
  double rate = 10.0;           ///< target arrivals/sec, all connections
  double duration_s = 5.0;      ///< sending window; draining extends it
  std::size_t connections = 1;  ///< concurrent client sockets
  std::string jobs_file;        ///< JSONL job templates (required)
  std::uint64_t seed = 1;       ///< Poisson arrival stream
  std::string name = "loadgen";
  /// Connect retry window: serve may still be binding when loadgen
  /// starts (CI launches it in the background), so connection attempts
  /// retry until this deadline before giving up.
  double connect_timeout_s = 5.0;
  /// After the sending window, wait at most this long for outstanding
  /// responses before declaring them lost.
  double drain_timeout_s = 60.0;
};

/// Outcome for one job template (one line of --jobs-file).
struct TemplateStats {
  service::JobSpec spec;     ///< identity fields for the BENCH gate key
  std::size_t family = 0;    ///< template index (gate "family")
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t skipped = 0;     ///< bipartite-only solver skips
  std::size_t errors = 0;      ///< {"error":...} other than overload
  std::size_t overloaded = 0;  ///< admission-control rejections
  std::size_t n = 0, m = 0;    ///< echoed from the first completed response
  /// Exact counters echoed from the first completed response — identical
  /// across repetitions by the serve determinism contract.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<double> latency_ms;  ///< e2e per completed (ok or skipped)
};

struct LoadgenResult {
  std::vector<TemplateStats> templates;
  std::size_t sent = 0;
  std::size_t completed = 0;   ///< ok + skipped responses
  std::size_t errors = 0;
  std::size_t overloaded = 0;
  std::size_t lost = 0;        ///< sent but never answered (drain timeout)
  double wall_ms = 0.0;        ///< connect to last response
  double latency_p50 = 0.0, latency_p95 = 0.0, latency_p99 = 0.0;
  double latency_mean = 0.0, latency_max = 0.0;

  /// Schema-versioned BENCH JSON: one results entry per template, keyed
  /// like the batch document (algorithm, generator, family=template
  /// index, instance=template id, n, m, epsilon, threads, seed), with
  /// counters from the responses and wall_ms.median = the template's
  /// median end-to-end latency. A "loadgen" object carries the offered
  /// load and the aggregate latency percentiles.
  void print_bench_json(std::ostream& os, const std::string& name) const;

  /// Human summary ("sent=... completed=... p95=...") for the log.
  void print_summary(std::ostream& os) const;

  std::size_t skipped_total() const;
};

/// Runs the load generation session on the calling thread. Throws
/// std::invalid_argument for unusable configuration or job templates
/// (the CLI's usage-error contract) and std::runtime_error when the
/// server cannot be reached within connect_timeout_s. Progress and the
/// final summary go to `log` (the CLI passes std::cerr).
LoadgenResult run_loadgen(const LoadgenConfig& config, std::ostream& log);

}  // namespace wmatch::net
