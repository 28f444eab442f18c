// Quickstart: one instance, the paper's two headline algorithms, and the
// exact optimum — submitted as one batch to the service Scheduler.
//
//   $ ./example_quickstart
//
// Demonstrates: api::GenSpec (graph + random-order stream in one
// declarative source), service::JobSpec (registry solver name + spec),
// service::Scheduler::run (the instance is generated once and shared by
// every job), and the normalized CostReport (the "passes" column is the
// streaming model cost, identical in meaning across every backend).
#include <iostream>

#include "service/service.h"

int main() {
  using namespace wmatch;

  // A 200-vertex random graph with exponential weights; the instance also
  // carries a random-order stream view for the single-pass solver.
  api::GenSpec gen;
  gen.n = 200;
  gen.m = 1200;
  gen.weights = gen::WeightDist::kExponential;
  gen.seed = 2026;

  service::JobSpec job;
  job.source = gen;
  job.spec.epsilon = 0.1;
  job.spec.seed = gen.seed;
  job.with_optimum = true;  // ratio column against Blossom's optimum

  // Ground truth, single pass (Theorem 1.1), multipass (Theorem 1.2) —
  // the same job for each, only the solver name differs.
  std::vector<service::JobSpec> jobs;
  for (const char* algo : {"exact-blossom", "rand-arrival", "reduction-hk"}) {
    job.solver = algo;
    jobs.push_back(job);
  }

  service::Scheduler scheduler;
  const service::BatchResult batch = scheduler.run(jobs);
  batch.table().print(std::cout);
  std::cout << "\nrand-arrival stored "
            << batch.results[1].cost.memory_peak_words
            << " words in its single pass; reduction-hk consumed "
            << batch.results[2].cost.passes << " streaming passes ("
            << batch.results[2].cost.bb_invocations << " black-box calls).\n";
  return batch.failed() == 0 ? 0 : 1;
}
