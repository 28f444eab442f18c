// Weighted job-worker assignment over a stream (the motivating workload of
// the paper's introduction: large bipartite matching where edges — worker
// bids — arrive online in random order and memory is limited).
//
// The whole comparison is one batch of jobs that differ only in the
// registry name: the exact optimum, both folklore baselines, and the
// paper's two algorithms run against the identical (shared, generated
// once) instance and report through the same CostReport.
#include <iostream>

#include "service/service.h"

int main() {
  using namespace wmatch;

  api::GenSpec gen;
  gen.generator = "bipartite";
  gen.n = 600;  // 300 workers + 300 jobs
  gen.m = 4000;
  gen.weights = gen::WeightDist::kPolynomial;
  gen.max_weight = 1000;
  gen.seed = 7;

  service::JobSpec job;
  job.source = gen;
  job.spec.epsilon = 0.15;
  job.spec.seed = gen.seed;
  job.with_optimum = true;

  std::vector<service::JobSpec> jobs;
  for (const char* algo : {"exact-hungarian", "greedy", "local-ratio",
                           "rand-arrival", "reduction-hk"}) {
    job.solver = algo;
    jobs.push_back(job);
  }

  service::Scheduler scheduler;
  const service::BatchResult batch = scheduler.run(jobs);
  batch.table().print(std::cout);
  std::cout << "\ngreedy's ratio collapses under adversarial bid orders "
               "(try api::ArrivalOrder::kIncreasingWeight); the paper's "
               "single-pass solver holds 1/2 + c on random arrivals.\n";
  return batch.failed() == 0 ? 0 : 1;
}
