#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "graph/io.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "util/json.h"
#include "util/require.h"
#include "util/stats.h"

namespace wmatch::service {

namespace {

/// Milliseconds since a monotonic_ns() reading. Batch timing flows
/// through obs/ like every other clock read (lint_invariants.py's
/// determinism check keeps <chrono> out of the service layer).
double elapsed_ms(std::uint64_t t0_ns) {
  return static_cast<double>(obs::monotonic_ns() - t0_ns) / 1e6;
}

/// Scheduler instrumentation; purely observational (DESIGN.md section 7).
struct ServiceMetrics {
  obs::Counter& jobs_total = obs::counter("service.jobs_total");
  obs::Counter& jobs_failed = obs::counter("service.jobs_failed");
  obs::Counter& jobs_skipped = obs::counter("service.jobs_skipped");
  obs::Histogram& solve_ms = obs::histogram("service.solve_ms");
  obs::Histogram& queue_wait_ms = obs::histogram("service.queue_wait_ms");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m;
  return m;
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig config)
    : config_(config), cache_(config.cache_capacity) {}

std::shared_ptr<const CachedInstance> Scheduler::instance(const JobSpec& job,
                                                         bool* hit) {
  return cache_.get_or_build(
      cache_key(job),
      [&job]() -> api::Instance {
        if (job.is_generated()) return api::generate_instance(job.gen());
        const FileSource& f = job.file();
        return api::make_instance(io::load_graph(f.path), f.order,
                                  api::stream_seed_for(job.spec.seed), f.path);
      },
      hit);
}

JobResult Scheduler::run_job(const JobSpec& job, std::size_t index,
                             double queue_wait_ms) {
  obs::Span job_span("service.job", static_cast<std::int64_t>(index));
  // Continue the request's cross-process flow (client send -> admission ->
  // here) when the job carries a client trace context.
  if (job.trace_id != 0) obs::flow_step("req", job.trace_id);
  ServiceMetrics& metrics = service_metrics();
  metrics.jobs_total.add();
  if (queue_wait_ms > 0.0) metrics.queue_wait_ms.observe(queue_wait_ms);
  JobResult r;
  r.index = index;
  r.trace_id = job.trace_id;
  r.queue_wait_ms = queue_wait_ms;
  r.id = job.id.empty() ? "job-" + std::to_string(index) : job.id;
  r.solver = job.solver;
  r.generator = job.is_generated() ? job.gen().generator : "file";
  r.epsilon = job.spec.epsilon;
  r.seed = job.spec.seed;
  r.threads = config_.threads_override > 0 ? config_.threads_override
                                           : job.spec.runtime.num_threads;
  try {
    const api::Registry& registry = api::Registry::instance();
    const api::SolverInfo& info = registry.info(job.solver);  // throws if unknown

    const std::shared_ptr<const CachedInstance> entry =
        instance(job, &r.cache_hit);
    const api::Instance& inst = entry->instance();
    r.instance_name = inst.name;
    r.n = inst.num_vertices();
    r.m = inst.num_edges();

    if (info.bipartite_only && !inst.is_bipartite()) {
      r.skipped = true;
      metrics.jobs_skipped.add();
      return r;
    }

    api::SolverSpec spec = job.spec;
    if (config_.threads_override > 0) {
      spec.runtime.num_threads = config_.threads_override;
    }

    const api::Solver solver(job.solver);
    for (std::size_t w = 0; w < job.warmup; ++w) {
      (void)solver.solve(inst, spec);
    }
    const std::size_t reps = std::max<std::size_t>(1, job.repetitions);
    std::vector<double> wall;
    wall.reserve(reps);
    api::SolveResult solve;
    {
      obs::Span solve_span("service.solve", static_cast<std::int64_t>(index));
      if (job.trace_id != 0) obs::flow_step("req", job.trace_id);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        solve = solver.solve(inst, spec);
        wall.push_back(solve.cost.wall_ms);
      }
    }

    r.cost = solve.cost;
    r.wall_ms_median = median(wall);
    r.wall_ms_min = *std::min_element(wall.begin(), wall.end());
    r.cost.wall_ms = r.wall_ms_median;
    r.matching_size = solve.matching.size();
    r.matching_weight = solve.matching.weight();
    const bool cardinality = info.objective == "cardinality";
    r.achieved = cardinality ? static_cast<double>(r.matching_size)
                             : static_cast<double>(r.matching_weight);
    r.optimum = entry->optimum(cardinality, job.with_optimum);
    r.stats = std::move(solve.stats);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  if (!r.ok()) {
    metrics.jobs_failed.add();
  } else {
    metrics.solve_ms.observe(r.wall_ms_median);
  }
  return r;
}

BatchResult Scheduler::run(const std::vector<JobSpec>& jobs) {
  const std::uint64_t t0 = obs::monotonic_ns();
  BatchResult batch;
  batch.results.resize(jobs.size());
  runtime::ThreadPool& pool =
      runtime::pool_for(runtime::RuntimeConfig{config_.jobs});
  pool.run_batch(jobs.size(), [&](std::size_t i) {
    batch.results[i] = run_job(jobs[i], i);
  });
  batch.cache = cache_.stats();
  batch.wall_ms_total = elapsed_ms(t0);
  return batch;
}

BatchResult Scheduler::run_stream(JobQueue& queue,
                                  const ResultCallback& on_result,
                                  bool collect_results) {
  const std::uint64_t t0 = obs::monotonic_ns();
  BatchResult batch;
  runtime::ThreadPool& pool =
      runtime::pool_for(runtime::RuntimeConfig{config_.jobs});
  // The caller is the only thread that ever blocks on the queue: it
  // assembles up to one chunk per pool thread and fans the chunk out as
  // ordinary finite tasks. Parking blocking pop-loops on the (shared,
  // per-thread-count-cached) pool instead would let a solver's nested
  // run_batch steal one and sit inside it until stream EOF, pinning that
  // job — pools are shared across the process, so pool tasks must always
  // terminate without external input.
  std::vector<Submission> chunk;
  std::vector<JobResult> chunk_results;
  const std::size_t chunk_target = pool.num_threads();
  for (;;) {
    chunk.clear();
    std::optional<Submission> first = queue.pop();  // blocks; nullopt = done
    if (!first) break;
    chunk.push_back(std::move(*first));
    while (chunk.size() < chunk_target) {
      std::optional<Submission> next = queue.try_pop();
      if (!next) break;
      chunk.push_back(std::move(*next));
    }
    chunk_results.clear();
    chunk_results.resize(chunk.size());
    pool.run_batch(chunk.size(), [&](std::size_t i) {
      const std::uint64_t enq = chunk[i].enqueue_ns;
      const double wait_ms =
          enq == 0 ? 0.0
                   : static_cast<double>(obs::monotonic_ns() - enq) / 1e6;
      chunk_results[i] = run_job(chunk[i].job, chunk[i].index, wait_ms);
      if (on_result) on_result(chunk_results[i], chunk[i].tag);
    });
    if (collect_results) {
      batch.results.insert(batch.results.end(),
                           std::make_move_iterator(chunk_results.begin()),
                           std::make_move_iterator(chunk_results.end()));
    }
  }
  // Chunks preserve queue order, but a multi-producer queue may have
  // interleaved indices; reports are promised in submission order.
  std::sort(batch.results.begin(), batch.results.end(),
            [](const JobResult& a, const JobResult& b) {
              return a.index < b.index;
            });
  batch.cache = cache_.stats();
  batch.wall_ms_total = elapsed_ms(t0);
  return batch;
}

std::size_t BatchResult::succeeded() const {
  std::size_t k = 0;
  for (const JobResult& r : results) k += r.ok() && !r.skipped;
  return k;
}

std::size_t BatchResult::skipped() const {
  std::size_t k = 0;
  for (const JobResult& r : results) k += r.ok() && r.skipped;
  return k;
}

std::size_t BatchResult::failed() const {
  std::size_t k = 0;
  for (const JobResult& r : results) k += !r.ok();
  return k;
}

double BatchResult::throughput_jobs_per_sec() const {
  if (wall_ms_total <= 0.0) return 0.0;
  return 1000.0 * static_cast<double>(results.size()) / wall_ms_total;
}

double BatchResult::latency_ms_mean() const {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (const JobResult& r : results) sum += r.wall_ms_median;
  return sum / static_cast<double>(results.size());
}

double BatchResult::latency_ms_max() const {
  double mx = 0.0;
  for (const JobResult& r : results) mx = std::max(mx, r.wall_ms_median);
  return mx;
}

Table BatchResult::table() const {
  const bool with_ratio =
      std::any_of(results.begin(), results.end(),
                  [](const JobResult& r) { return r.has_ratio(); });
  std::vector<std::string> header = {
      "id",     "solver", "instance",  "n",        "m",   "size", "weight",
      "passes", "rounds", "mem words", "bb calls", "hit", "wall ms"};
  if (with_ratio) header.insert(header.begin() + 7, "ratio");
  Table t(header);
  for (const JobResult& r : results) {
    if (!r.ok()) {
      std::vector<std::string> row = {r.id, r.solver, "ERROR: " + r.error};
      row.resize(t.columns(), "-");
      t.add_row(std::move(row));
      continue;
    }
    std::vector<std::string> row = {r.id, r.solver, r.instance_name,
                                    Table::fmt(r.n), Table::fmt(r.m)};
    if (r.skipped) {
      row.push_back("skipped");  // in place of the size column
      row.resize(t.columns(), "-");
      row[t.columns() - 2] = r.cache_hit ? "y" : "n";
      t.add_row(std::move(row));
      continue;
    }
    row.push_back(Table::fmt(r.matching_size));
    row.push_back(Table::fmt(r.matching_weight));
    if (with_ratio) {
      row.push_back(r.has_ratio() ? Table::fmt(r.ratio(), 4) : "-");
    }
    row.push_back(Table::fmt(r.cost.passes));
    row.push_back(Table::fmt(r.cost.rounds));
    row.push_back(Table::fmt(r.cost.memory_peak_words));
    row.push_back(Table::fmt(r.cost.bb_invocations));
    row.push_back(r.cache_hit ? "y" : "n");
    row.push_back(Table::fmt(r.wall_ms_median, 2));
    t.add_row(std::move(row));
  }
  return t;
}

Table BatchResult::summary_table() const {
  Table t({"metric", "value"});
  t.add_row({"jobs", Table::fmt(results.size())});
  t.add_row({"succeeded", Table::fmt(succeeded())});
  t.add_row({"skipped", Table::fmt(skipped())});
  t.add_row({"failed", Table::fmt(failed())});
  t.add_row({"wall ms total", Table::fmt(wall_ms_total, 1)});
  t.add_row({"throughput jobs/s", Table::fmt(throughput_jobs_per_sec(), 1)});
  t.add_row({"latency ms mean", Table::fmt(latency_ms_mean(), 2)});
  t.add_row({"latency ms max", Table::fmt(latency_ms_max(), 2)});
  t.add_row({"cache hits", Table::fmt(cache.hits)});
  t.add_row({"cache misses", Table::fmt(cache.misses)});
  t.add_row({"cache evictions", Table::fmt(cache.evictions)});
  return t;
}

void BatchResult::print_bench_json(std::ostream& os,
                                   const std::string& name) const {
  os << "{\"bench\":";
  util::write_json_string(os, name);
  os << ",\"schema_version\":" << kBenchSchemaVersion;
  os << ",\"service\":{\"jobs\":" << results.size()
     << ",\"succeeded\":" << succeeded() << ",\"skipped\":" << skipped()
     << ",\"failed\":" << failed()
     << ",\"wall_ms_total\":" << util::json_number(wall_ms_total)
     << ",\"throughput_jobs_per_sec\":" << util::json_number(throughput_jobs_per_sec())
     << ",\"latency_ms_mean\":" << util::json_number(latency_ms_mean())
     << ",\"latency_ms_max\":" << util::json_number(latency_ms_max())
     << ",\"cache\":{\"hits\":" << cache.hits
     << ",\"misses\":" << cache.misses
     << ",\"evictions\":" << cache.evictions
     << ",\"inserts\":" << cache.inserts << ",\"size\":" << cache.size
     << "}}";
  // Process-wide obs registry snapshot. An extra top-level key is safe for
  // scripts/check_bench_regression.py, which only reads schema_version,
  // results, and service.
  os << ",\"metrics\":";
  obs::write_metrics_json(os);
  os << ",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    if (i) os << ',';
    os << "{\"algorithm\":";
    util::write_json_string(os, r.solver);
    os << ",\"generator\":";
    util::write_json_string(os, r.generator);
    os << ",\"instance\":";
    util::write_json_string(os, r.id);
    // family = submission index: stable across runs of one jobs file and
    // keeps gate keys unique when two jobs differ only in knobs the key
    // does not carry.
    os << ",\"family\":" << r.index << ",\"n\":" << r.n << ",\"m\":" << r.m
       << ",\"epsilon\":" << util::json_number(r.epsilon)
       << ",\"threads\":" << r.threads << ",\"seed\":" << r.seed;
    // Failed jobs publish as skipped (no counters) with the error message
    // attached; the batch exit code, not the gate, reports the failure.
    os << ",\"skipped\":" << (r.skipped || !r.ok() ? "true" : "false");
    if (!r.ok()) {
      os << ",\"error\":";
      util::write_json_string(os, r.error);
    } else if (!r.skipped) {
      os << ",\"cache_hit\":" << (r.cache_hit ? "true" : "false");
      write_bench_result_tail(os, r);
    }
    os << '}';
  }
  os << "]}\n";
}

}  // namespace wmatch::service
