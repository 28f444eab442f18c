// The batch-solving Scheduler (tentpole of ISSUE 5).
//
// Executes many solve jobs concurrently on the existing work-stealing
// runtime::ThreadPool: job-level parallelism (`jobs` concurrent jobs)
// composes with each solver's own intra-solver parallelism
// (SolverSpec::runtime.num_threads) because the pool is nested-safe — a
// pool worker running a job simply helps drain the sub-batches its solver
// submits. Every job owns its solver state (per-job MpcContext /
// MemoryMeter inside the adapters, randomness from Rng(spec.seed)), so
// per-job CostReports are bit-identical to serial runs for any
// jobs × threads combination; only wall clock varies.
//
// Two entry points: `run` for a materialized job list (the sweep layer's
// grid cells, `wmatch_cli solve`'s one job per --algo), and `run_stream`
// for a bounded JobQueue fed by a producer thread (`wmatch_cli batch`).
// Both share one InstanceCache, which also outlives batches — a long
// `serve` session amortizes generation across requests.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/instance_cache.h"
#include "service/job.h"
#include "service/job_queue.h"
#include "util/table.h"

namespace wmatch::service {

struct SchedulerConfig {
  /// Concurrent jobs: 1 = sequential (default), 0 = one per hardware
  /// thread. This is the thread count of the pool jobs are fanned out on.
  std::size_t jobs = 1;
  /// Resident instances in the shared InstanceCache.
  std::size_t cache_capacity = 16;
  /// Override every job's SolverSpec::runtime.num_threads (0 = keep each
  /// job's own setting) — the CLI's --threads knob.
  std::size_t threads_override = 0;
};

/// Aggregated outcome of one batch: per-job results in submission order
/// plus throughput/latency and cache accounting.
struct BatchResult {
  std::vector<JobResult> results;
  CacheStats cache;
  double wall_ms_total = 0.0;  ///< batch wall clock (submission to drain)

  std::size_t succeeded() const;
  std::size_t skipped() const;
  std::size_t failed() const;
  double throughput_jobs_per_sec() const;
  /// Mean / max per-job wall clock (median over each job's repetitions).
  double latency_ms_mean() const;
  double latency_ms_max() const;

  /// One row per job: id, solver, instance, exact counters, wall ms; a
  /// ratio column when any job reports one.
  Table table() const;
  /// Throughput / latency / cache summary rows ("metric", "value").
  Table summary_table() const;
  /// Schema-versioned BENCH JSON ({"bench","schema_version","service",
  /// "results"}) compatible with scripts/check_bench_regression.py: one
  /// results entry per job keyed by (algorithm, generator, family=index,
  /// instance=id, n, m, epsilon, threads, seed) with exact counters, plus
  /// a "service" object carrying the throughput and cache summary.
  void print_bench_json(std::ostream& os, const std::string& name) const;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config = {});

  /// The job's instance through the shared cache, built on a miss from
  /// the job's GenSpec or by loading its file (streamed in the file's
  /// order). Throws what the loader throws for an unreadable or
  /// malformed file. `*hit` (optional) reports whether a build was
  /// avoided.
  std::shared_ptr<const CachedInstance> instance(const JobSpec& job,
                                                 bool* hit = nullptr);

  /// Executes one job on the calling thread (through the shared cache).
  /// Exceptions are captured into JobResult::error — run_job never throws.
  /// `queue_wait_ms` (streaming path) is echoed into the result and the
  /// service.queue_wait_ms histogram; it does not affect execution.
  JobResult run_job(const JobSpec& job, std::size_t index = 0,
                    double queue_wait_ms = 0.0);

  /// Fans the jobs out on the pool; results come back in submission order.
  BatchResult run(const std::vector<JobSpec>& jobs);

  /// Called from the executing worker the moment a job finishes, with
  /// the result and the submission's routing tag — before the next job
  /// of the stream is guaranteed to start. Invoked concurrently from
  /// multiple workers; the callback synchronizes its own sinks (the net
  /// listener serializes per-connection socket writes with a mutex).
  using ResultCallback =
      std::function<void(const JobResult&, std::uint64_t tag)>;

  /// Streaming variant: the caller pops the queue, assembling chunks of
  /// up to `jobs` submissions and fanning each chunk out on the pool
  /// (only the caller ever blocks on the queue — pool tasks stay finite,
  /// see scheduler.cpp). The queue must be fed (and eventually closed)
  /// by ANOTHER thread, or this call waits on an empty queue forever.
  ///
  /// `on_result` (optional) streams each JobResult out as it completes.
  /// `collect_results` = false drops results after the callback instead
  /// of accumulating them in the BatchResult — a long-lived server's
  /// memory must not grow with every request ever served; the returned
  /// BatchResult then carries only the cache stats and wall clock.
  BatchResult run_stream(JobQueue& queue, const ResultCallback& on_result = {},
                         bool collect_results = true);

  const SchedulerConfig& config() const { return config_; }
  const InstanceCache& cache() const { return cache_; }
  InstanceCache& cache() { return cache_; }

 private:
  SchedulerConfig config_;
  InstanceCache cache_;
};

}  // namespace wmatch::service
