// Tests for the batch-solving service layer (ISSUE 5): InstanceCache
// hit/eviction accounting, bounded JobQueue semantics, JSONL job parsing,
// and the acceptance contract — a batch of heterogeneous jobs yields
// per-job counters bit-identical to serial api::solve calls for any
// --jobs x --threads combination, with the cache reporting hits.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "service/service.h"
#include "sweep/sweep.h"

namespace wmatch {
namespace {

api::GenSpec small_gen(const std::string& generator, std::size_t n,
                       std::size_t m) {
  api::GenSpec g;
  g.generator = generator;
  g.n = n;
  g.m = m;
  return g;
}

// ---- InstanceCache ----

TEST(InstanceCache, CountsHitsMissesAndBuildsOncePerKey) {
  service::InstanceCache cache(4);
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return api::generate_instance(small_gen("erdos_renyi", 20, 40));
  };
  auto a = cache.get_or_build("k1", build);
  bool hit = false;
  auto b = cache.get_or_build("k1", build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());  // shared read-only view
  cache.get_or_build("k2", build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 2);

  const service::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 2u);
}

TEST(InstanceCache, EvictsLeastRecentlyUsedAtCapacity) {
  service::InstanceCache cache(2);
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return api::generate_instance(small_gen("erdos_renyi", 16, 30));
  };
  cache.get_or_build("a", build);  // miss          LRU: a
  cache.get_or_build("b", build);  // miss          LRU: b a
  cache.get_or_build("a", build);  // hit           LRU: a b
  cache.get_or_build("c", build);  // miss, evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  bool hit = true;
  cache.get_or_build("b", build, &hit);  // rebuilt: b was the LRU victim
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 4);
  EXPECT_EQ(cache.stats().size, 2u);

  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(InstanceCache, FailedBuildIsNotCachedAndRethrows) {
  service::InstanceCache cache(2);
  int calls = 0;
  EXPECT_THROW(cache.get_or_build("bad",
                                  [&]() -> api::Instance {
                                    ++calls;
                                    throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
  // The key is free again: the next requester builds fresh.
  bool hit = true;
  cache.get_or_build(
      "bad",
      [&] {
        ++calls;
        return api::generate_instance(small_gen("erdos_renyi", 16, 30));
      },
      &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(calls, 2);
}

TEST(InstanceCache, LazyOptimaAreCachedPerObjective) {
  service::CachedInstance entry(
      api::generate_instance(small_gen("hard-greedy-trap", 32, 0)));
  // Planted optimum reports without an exact solve.
  const double planted = entry.optimum(false, false);
  EXPECT_GT(planted, 0.0);
  EXPECT_EQ(entry.optimum(false, true), planted);
  // Non-unit weights: the cardinality optimum needs an exact solve.
  EXPECT_EQ(entry.optimum(true, false), -1.0);
  EXPECT_GT(entry.optimum(true, true), 0.0);
}

// ---- JobQueue ----

TEST(JobQueue, DeliversInFifoOrderAndDrainsAfterClose) {
  service::JobQueue q(8);
  for (std::size_t i = 0; i < 3; ++i) {
    service::Submission s;
    s.index = i;
    EXPECT_TRUE(q.push(std::move(s)));
  }
  q.close();
  EXPECT_FALSE(q.push({}));  // rejected after close
  for (std::size_t i = 0; i < 3; ++i) {
    auto s = q.pop();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->index, i);
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, CloseWithDiscardDropsTheBacklog) {
  service::JobQueue q(8);
  for (std::size_t i = 0; i < 3; ++i) {
    service::Submission s;
    s.index = i;
    q.push(std::move(s));
  }
  q.close(/*discard_pending=*/true);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, BoundedPushBlocksUntilPopped) {
  service::JobQueue q(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (std::size_t i = 0; i < 4; ++i) {
      service::Submission s;
      s.index = i;
      q.push(std::move(s));
      ++pushed;
    }
    q.close();
  });
  // The producer can get at most capacity pushes ahead of the consumer.
  while (pushed.load() < 2) std::this_thread::yield();
  EXPECT_LE(q.size(), 2u);
  std::size_t drained = 0;
  while (q.pop().has_value()) ++drained;
  producer.join();
  EXPECT_EQ(drained, 4u);
  EXPECT_EQ(pushed.load(), 4);
}

// ---- JSONL job parsing ----

TEST(JobFile, ParsesFullJobAndDefaults) {
  const service::JobSpec job = service::parse_job(
      R"({"id":"j","algo":"reduction-mpc","gen":{"generator":"bipartite",)"
      R"("n":64,"m":128,"weights":"exponential","order":"clustered"},)"
      R"("seed":9,"epsilon":0.25,"delta":0.1,"threads":4,"reps":2,)"
      R"("warmup":1,"with_optimum":true,"machines":3,"mem_words":512})");
  EXPECT_EQ(job.id, "j");
  EXPECT_EQ(job.solver, "reduction-mpc");
  ASSERT_TRUE(job.is_generated());
  EXPECT_EQ(job.gen().generator, "bipartite");
  EXPECT_EQ(job.gen().n, 64u);
  EXPECT_EQ(job.gen().seed, 9u);  // job seed drives generation
  EXPECT_EQ(job.gen().order, api::ArrivalOrder::kClustered);
  EXPECT_EQ(job.spec.seed, 9u);
  EXPECT_EQ(job.spec.epsilon, 0.25);
  EXPECT_EQ(job.spec.runtime.num_threads, 4u);
  EXPECT_EQ(job.repetitions, 2u);
  EXPECT_TRUE(job.with_optimum);
  const auto knobs = job.spec.knobs_or_default<api::MpcKnobs>();
  EXPECT_EQ(knobs.num_machines, 3u);
  EXPECT_EQ(knobs.machine_memory_words, 512u);

  // Generator-name and input-path shorthands.
  EXPECT_EQ(service::parse_job(R"({"algo":"greedy","gen":"path"})")
                .gen()
                .generator,
            "path");
  EXPECT_EQ(
      service::parse_job(R"({"algo":"greedy","input":"g.dimacs"})")
          .file()
          .path,
      "g.dimacs");
}

TEST(JobFile, RejectsMalformedJobs) {
  EXPECT_THROW(service::parse_job("not json"), std::invalid_argument);
  EXPECT_THROW(service::parse_job(R"({"gen":"path"})"),  // no algo
               std::invalid_argument);
  EXPECT_THROW(service::parse_job(R"({"algo":"greedy"})"),  // no source
               std::invalid_argument);
  EXPECT_THROW(service::parse_job(  // both sources
                   R"({"algo":"greedy","gen":"path","input":"x"})"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_job(  // unknown solver
                   R"({"algo":"nope","gen":"path"})"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_job(  // unknown generator
                   R"({"algo":"greedy","gen":"nope"})"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_job(  // unknown key
                   R"({"algo":"greedy","gen":"path","frobnicate":1})"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_job(  // knob sets are exclusive
                   R"({"algo":"greedy","gen":"path","machines":2,"p":0.1})"),
               std::invalid_argument);
}

TEST(JobFile, ParseJobsReportsLineNumbersAndStampsIds) {
  std::istringstream is(
      "# comment\n"
      "\n"
      R"({"algo":"greedy","gen":{"generator":"erdos_renyi","n":20,"m":40}})"
      "\n"
      R"({"id":"named","algo":"local-ratio","gen":"path"})"
      "\n");
  const auto jobs = service::parse_jobs(is, "jobs.jsonl");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "job-0");
  EXPECT_EQ(jobs[1].id, "named");

  std::istringstream bad("{\"algo\":\n");
  try {
    service::parse_jobs(bad, "jobs.jsonl");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jobs.jsonl:1:"),
              std::string::npos);
  }
}

TEST(JobFile, OutOfRangeEpsilonOrDeltaIsALineParseError) {
  // Rejected where the line is parsed, as a line error naming the key —
  // not by a requirement failure (and its source path) inside the solver.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"algo":"reduction-hk","gen":"path","epsilon":2})",
       "jobs.jsonl:3: \"epsilon\" must be in (0,1), got 2"},
      {R"({"algo":"greedy","gen":"path","epsilon":0})",
       "jobs.jsonl:3: \"epsilon\" must be in (0,1), got 0"},
      {R"({"algo":"reduction-hk","gen":"path","delta":5})",
       "jobs.jsonl:3: \"delta\" must be in [0,1) (0 = epsilon/2), got 5"},
      {R"({"algo":"reduction-hk","gen":"path","delta":-0.5})",
       "jobs.jsonl:3: \"delta\" must be in [0,1) (0 = epsilon/2), got -0.5"},
  };
  for (const auto& [line, message] : cases) {
    service::JobSpec job;
    try {
      service::parse_job_line(line, "jobs.jsonl", 3, 0, &job);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
  service::JobSpec job;  // the boundaries that stay legal
  ASSERT_TRUE(service::parse_job_line(
      R"({"algo":"reduction-hk","gen":"path","epsilon":0.5,"delta":0})",
      "jobs.jsonl", 1, 0, &job));
  EXPECT_EQ(job.spec.epsilon, 0.5);
  EXPECT_EQ(job.spec.delta, 0.0);
}

TEST(JobFile, ShapeTheFamilyCannotPlaceIsALineParseError) {
  // Rejected where the line is parsed, naming the key and no source file
  // (the generator's own requirement used to fail with its source path).
  service::JobSpec job;
  try {
    service::parse_job_line(
        R"({"algo":"greedy","gen":{"generator":"erdos_renyi","n":5,"m":1000}})",
        "jobs.jsonl", 2, 0, &job);
    ADD_FAILURE() << "accepted m=1000 on n=5";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "jobs.jsonl:2: \"gen\" m=1000 is more edges than erdos_renyi "
              "can place on n=5 vertices (at most 10)");
  }
  ASSERT_TRUE(service::parse_job_line(  // the largest legal m
      R"({"algo":"greedy","gen":{"generator":"erdos_renyi","n":5,"m":10}})",
      "jobs.jsonl", 1, 0, &job));
}

TEST(Scheduler, ShapeTheFamilyCannotPlaceFailsTheJobWithoutASourcePath) {
  // A GenSpec built in code skips the line parser; the job fails with the
  // same text generate_instance throws, and the batch goes on.
  service::JobSpec bad;
  bad.id = "bad";
  bad.solver = "greedy";
  bad.source = small_gen("bipartite", 5, 7);
  service::JobSpec good = bad;
  good.id = "good";
  good.source = small_gen("bipartite", 5, 6);
  const service::BatchResult batch = service::Scheduler().run({bad, good});
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_FALSE(batch.results[0].ok());
  EXPECT_NE(batch.results[0].error.find(
                "m=7 is more edges than bipartite can place on n=5 vertices "
                "(at most 6)"),
            std::string::npos)
      << batch.results[0].error;
  EXPECT_EQ(batch.results[0].error.find(".cpp"), std::string::npos);
  EXPECT_TRUE(batch.results[1].ok());
}

// ---- cache keys ----

TEST(CacheKey, DistinguishesEveryGenSpecAxisAndHashesFiles) {
  service::JobSpec a;
  a.solver = "greedy";
  a.source = small_gen("erdos_renyi", 64, 128);
  service::JobSpec b = a;
  EXPECT_EQ(service::cache_key(a), service::cache_key(b));
  api::GenSpec g = b.gen();
  g.seed = 2;
  b.source = g;
  EXPECT_NE(service::cache_key(a), service::cache_key(b));
  g.seed = 1;
  g.weights = gen::WeightDist::kExponential;
  b.source = g;
  EXPECT_NE(service::cache_key(a), service::cache_key(b));
  // Different solvers on the same instance share the key.
  b = a;
  b.solver = "local-ratio";
  EXPECT_EQ(service::cache_key(a), service::cache_key(b));

  // File sources key on content: two paths, same bytes, one entry.
  const std::string p1 = "/tmp/wmatch_service_key_1.graph";
  const std::string p2 = "/tmp/wmatch_service_key_2.graph";
  for (const std::string& p : {p1, p2}) {
    std::ofstream os(p);
    os << "p wmatch 2 1\ne 0 1 5\n";
  }
  service::JobSpec f1, f2;
  f1.solver = f2.solver = "greedy";
  f1.source = service::FileSource{p1, api::ArrivalOrder::kAsGenerated};
  f2.source = service::FileSource{p2, api::ArrivalOrder::kAsGenerated};
  EXPECT_EQ(service::cache_key(f1), service::cache_key(f2));
  {
    std::ofstream os(p2);
    os << "p wmatch 2 1\ne 0 1 7\n";
  }
  EXPECT_NE(service::cache_key(f1), service::cache_key(f2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---- Scheduler: the acceptance contract ----

/// 12 heterogeneous jobs: mixed solvers (streaming / MPC / offline),
/// mixed families, mixed seeds; two pairs share an instance so the cache
/// must report hits. Instances stay small so the full jobs x threads
/// matrix runs quickly.
std::vector<service::JobSpec> heterogeneous_jobs() {
  std::vector<service::JobSpec> jobs;
  const auto add = [&](const std::string& solver, api::GenSpec gen,
                       std::uint64_t seed, double epsilon) {
    service::JobSpec job;
    job.id = "j" + std::to_string(jobs.size());
    job.solver = solver;
    gen.seed = seed;
    job.source = gen;
    job.spec.seed = seed;
    job.spec.epsilon = epsilon;
    jobs.push_back(std::move(job));
  };
  const api::GenSpec er = small_gen("erdos_renyi", 48, 140);
  const api::GenSpec bip = small_gen("bipartite", 48, 140);
  const api::GenSpec trap = small_gen("hard-greedy-trap", 32, 0);
  const api::GenSpec cyc = small_gen("hard-four-cycle", 32, 0);
  add("greedy", er, 3, 0.1);
  add("local-ratio", er, 3, 0.1);       // shares j0's instance
  add("rand-arrival", er, 4, 0.1);      // different seed: new instance
  add("unw-rand-arrival", bip, 5, 0.1);
  add("reduction-hk", bip, 5, 0.3);     // shares j3's instance
  add("reduction-mpc", er, 6, 0.3);
  add("reduction-exact", trap, 7, 0.2);
  add("exact-blossom", cyc, 8, 0.1);
  add("exact-hungarian", bip, 5, 0.1);  // shares j3/j4's instance
  add("exact-hk", bip, 9, 0.1);
  add("greedy-weight", trap, 7, 0.1);   // shares j6's instance
  add("exact-hungarian", trap, 7, 0.1); // skipped: trap is non-bipartite
  return jobs;
}

TEST(Scheduler, BatchCountersBitIdenticalToSerialForJobsAndThreads) {
  const std::vector<service::JobSpec> jobs = heterogeneous_jobs();
  ASSERT_GE(jobs.size(), 12u);

  // Serial reference: plain api::solve at the same seed, no service layer.
  struct Reference {
    bool skipped = false;
    api::CostReport cost;
    std::size_t size = 0;
    Weight weight = 0;
    std::vector<std::pair<std::string, double>> stats;
  };
  std::vector<Reference> ref;
  for (const service::JobSpec& job : jobs) {
    Reference r;
    const api::Instance inst = api::generate_instance(job.gen());
    const api::SolverInfo& info = api::Registry::instance().info(job.solver);
    if (info.bipartite_only && !inst.is_bipartite()) {
      r.skipped = true;
    } else {
      api::SolveResult s = api::solve(job.solver, inst, job.spec);
      r.cost = s.cost;
      r.size = s.matching.size();
      r.weight = s.matching.weight();
      r.stats = std::move(s.stats);
    }
    ref.push_back(std::move(r));
  }

  for (std::size_t num_jobs : {1u, 2u, 8u}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      service::SchedulerConfig cfg;
      cfg.jobs = num_jobs;
      cfg.cache_capacity = 16;
      cfg.threads_override = threads;
      service::Scheduler scheduler(cfg);
      const service::BatchResult batch = scheduler.run(jobs);
      ASSERT_EQ(batch.results.size(), jobs.size());
      EXPECT_GE(batch.cache.hits, 1u)
          << "jobs=" << num_jobs << " threads=" << threads;

      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const service::JobResult& r = batch.results[i];
        const Reference& e = ref[i];
        SCOPED_TRACE("job " + r.id + " jobs=" + std::to_string(num_jobs) +
                     " threads=" + std::to_string(threads));
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.index, i);
        ASSERT_EQ(r.skipped, e.skipped);
        if (e.skipped) continue;
        EXPECT_EQ(r.cost.passes, e.cost.passes);
        EXPECT_EQ(r.cost.rounds, e.cost.rounds);
        EXPECT_EQ(r.cost.memory_peak_words, e.cost.memory_peak_words);
        EXPECT_EQ(r.cost.communication_words, e.cost.communication_words);
        EXPECT_EQ(r.cost.bb_invocations, e.cost.bb_invocations);
        EXPECT_EQ(r.cost.bb_max_invocation_cost,
                  e.cost.bb_max_invocation_cost);
        EXPECT_EQ(r.matching_size, e.size);
        EXPECT_EQ(r.matching_weight, e.weight);
        EXPECT_EQ(r.stats, e.stats);
      }
    }
  }
}

// A job that did not ask for the optimum must not inherit the Blossom
// solve another job cached on the shared instance entry — what a job
// reports may not depend on batch composition or scheduling order.
TEST(Scheduler, OptimumDoesNotLeakAcrossJobsSharingAnInstance) {
  service::JobSpec with;
  with.id = "with";
  with.solver = "rand-arrival";
  with.source = small_gen("erdos_renyi", 40, 120);
  with.with_optimum = true;
  service::JobSpec without = with;
  without.id = "without";
  without.solver = "greedy";
  without.with_optimum = false;

  service::Scheduler scheduler;  // jobs=1: "with" runs (and solves) first
  const service::BatchResult batch = scheduler.run({with, without});
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_TRUE(batch.results[1].cache_hit);
  EXPECT_TRUE(batch.results[0].has_ratio());
  EXPECT_FALSE(batch.results[1].has_ratio());
}

TEST(Scheduler, RunStreamMatchesRunAndOrdersResults) {
  const std::vector<service::JobSpec> jobs = heterogeneous_jobs();
  service::SchedulerConfig cfg;
  cfg.jobs = 2;
  service::Scheduler scheduler(cfg);
  const service::BatchResult direct = scheduler.run(jobs);

  service::Scheduler streamer(cfg);
  service::JobQueue queue(2);  // force producer/consumer interleaving
  std::thread producer([&] {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      service::Submission s;
      s.index = i;
      s.job = jobs[i];
      queue.push(std::move(s));
    }
    queue.close();
  });
  const service::BatchResult streamed = streamer.run_stream(queue);
  producer.join();

  ASSERT_EQ(streamed.results.size(), direct.results.size());
  for (std::size_t i = 0; i < direct.results.size(); ++i) {
    EXPECT_EQ(streamed.results[i].index, i);
    EXPECT_EQ(streamed.results[i].id, direct.results[i].id);
    EXPECT_EQ(streamed.results[i].matching_weight,
              direct.results[i].matching_weight);
    EXPECT_EQ(streamed.results[i].cost.bb_invocations,
              direct.results[i].cost.bb_invocations);
  }
}

TEST(Scheduler, FailedJobCapturesErrorWithoutAbortingTheBatch) {
  std::vector<service::JobSpec> jobs;
  service::JobSpec good;
  good.id = "good";
  good.solver = "greedy";
  good.source = small_gen("erdos_renyi", 20, 40);
  service::JobSpec bad = good;
  bad.id = "bad";
  bad.source = service::FileSource{"/nonexistent/x.graph"};
  jobs.push_back(bad);
  jobs.push_back(good);

  service::Scheduler scheduler;
  const service::BatchResult batch = scheduler.run(jobs);
  EXPECT_EQ(batch.failed(), 1u);
  EXPECT_FALSE(batch.results[0].ok());
  EXPECT_NE(batch.results[0].error.find("/nonexistent/x.graph"),
            std::string::npos);
  EXPECT_TRUE(batch.results[1].ok());
}

TEST(BatchResult, BenchJsonCarriesSchemaCountersAndServiceSummary) {
  service::Scheduler scheduler;
  std::vector<service::JobSpec> jobs;
  service::JobSpec job;
  job.id = "only";
  job.solver = "greedy";
  job.source = small_gen("erdos_renyi", 20, 40);
  jobs.push_back(job);
  jobs.push_back(job);  // duplicate: guarantees one cache hit
  const service::BatchResult batch = scheduler.run(jobs);

  std::ostringstream os;
  batch.print_bench_json(os, "unit");
  const std::string s = os.str();
  EXPECT_NE(s.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(s.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(s.find("\"service\":{"), std::string::npos);
  EXPECT_NE(s.find("\"cache\":{\"hits\":1"), std::string::npos);
  EXPECT_NE(s.find("\"counters\":{\"passes\":1"), std::string::npos);
  EXPECT_NE(s.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_EQ(s.back(), '\n');
}

// The per-job line is the serve response, and the BENCH tail is what the
// regression gate diffs: both are pinned byte for byte.
TEST(JobJson, PerJobLineAndBenchTailArePinned) {
  service::JobResult r;
  r.id = "a";
  r.solver = "greedy";
  r.instance_name = "erdos_renyi";
  r.n = 20;
  r.m = 40;
  r.cost.model = "streaming";
  r.cost.passes = 1;
  r.cost.memory_peak_words = 8;
  r.cost.wall_ms = 0.5;
  r.matching_size = 8;
  r.matching_weight = 10977;
  r.achieved = 10977;
  r.optimum = 21954;
  r.wall_ms_median = 0.5;
  r.wall_ms_min = 0.25;
  r.stats = {{"stack_size", 14}};

  std::ostringstream ok;
  service::print_job_json(ok, r);
  EXPECT_EQ(ok.str(),
            "{\"id\":\"a\",\"algorithm\":\"greedy\",\"instance\":{\"name\":"
            "\"erdos_renyi\",\"n\":20,\"m\":40},\"skipped\":false,"
            "\"cache_hit\":false,\"cost\":{\"model\":\"streaming\","
            "\"passes\":1,\"rounds\":0,\"memory_peak_words\":8,"
            "\"communication_words\":0,\"bb_invocations\":0,"
            "\"bb_max_invocation_cost\":0,\"wall_ms\":0.5},\"matching\":{"
            "\"size\":8,\"weight\":10977,\"optimum\":21954,\"ratio\":0.5},"
            "\"wall_ms\":{\"median\":0.5,\"min\":0.25},"
            "\"stats\":{\"stack_size\":14}}\n");

  std::ostringstream tail;
  service::write_bench_result_tail(tail, r);
  EXPECT_EQ(tail.str(),
            ",\"counters\":{\"passes\":1,\"rounds\":0,"
            "\"memory_peak_words\":8,\"communication_words\":0,"
            "\"bb_invocations\":0,\"bb_max_invocation_cost\":0,"
            "\"matching_size\":8,\"matching_weight\":10977},"
            "\"optimum\":21954,\"ratio\":0.5,"
            "\"wall_ms\":{\"median\":0.5,\"min\":0.25},"
            "\"stats\":{\"stack_size\":14}");

  service::JobResult skipped;
  skipped.id = "s";
  skipped.solver = "exact-hk";
  skipped.instance_name = "erdos_renyi";
  skipped.n = 50;
  skipped.m = 100;
  skipped.skipped = true;
  skipped.cache_hit = true;
  std::ostringstream skip;
  service::print_job_json(skip, skipped);
  EXPECT_EQ(skip.str(),
            "{\"id\":\"s\",\"algorithm\":\"exact-hk\",\"instance\":{"
            "\"name\":\"erdos_renyi\",\"n\":50,\"m\":100},"
            "\"skipped\":true,\"cache_hit\":true}\n");

  service::JobResult failed;
  failed.id = "e";
  failed.solver = "greedy";
  failed.error = "parse error at line 2";
  std::ostringstream err;
  service::print_job_json(err, failed);
  EXPECT_EQ(err.str(),
            "{\"id\":\"e\",\"algorithm\":\"greedy\","
            "\"error\":\"parse error at line 2\"}\n");
}

TEST(BatchResult, TableHasARatioColumnOnlyWhenAJobHasARatio) {
  service::JobSpec planted;
  planted.solver = "greedy";
  planted.source = small_gen("hard-four-cycle", 40, 0);
  service::JobSpec plain = planted;
  plain.source = small_gen("erdos_renyi", 20, 40);

  service::Scheduler scheduler;
  const auto header = [&](const std::vector<service::JobSpec>& jobs) {
    std::ostringstream os;
    scheduler.run(jobs).table().print(os);
    return os.str().substr(0, os.str().find('\n'));
  };
  EXPECT_EQ(header({plain}).find("ratio"), std::string::npos);
  // The planted optimum alone (no with_optimum) gives the column; the
  // job without an optimum shows "-" in it.
  const std::vector<service::JobSpec> both = {planted, plain};
  EXPECT_NE(header(both).find("ratio"), std::string::npos);
  EXPECT_EQ(scheduler.run(both).table().columns(), 14u);
}

// Scheduler::instance is the cache lookup run_job makes: jobs after it
// hit, and an unreadable file fails with the loader's message.
TEST(Scheduler, InstanceIsTheEntryRunJobUses) {
  service::JobSpec job;
  job.solver = "greedy";
  job.source = small_gen("erdos_renyi", 20, 40);
  service::Scheduler scheduler;
  bool hit = true;
  const auto entry = scheduler.instance(job, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(entry->instance().num_edges(), 40u);
  const service::BatchResult batch = scheduler.run({job, job});
  EXPECT_TRUE(batch.results[0].cache_hit);
  EXPECT_TRUE(batch.results[1].cache_hit);
  EXPECT_EQ(scheduler.cache().stats().misses, 1u);

  service::JobSpec missing = job;
  missing.source = service::FileSource{"/nonexistent/x.graph"};
  try {
    scheduler.instance(missing);
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cannot open '/nonexistent/x.graph' for reading");
  }
}

// The sweep layer is the service's first internal client: cell-level
// parallelism must not change any reported counter.
TEST(SweepService, SweepJobsKnobKeepsCountersBitIdentical) {
  sweep::SweepSpec spec;
  spec.name = "svc";
  spec.solvers = {"greedy", "rand-arrival", "reduction-hk"};
  api::GenSpec er = small_gen("erdos_renyi", 40, 120);
  api::GenSpec trap = small_gen("hard-greedy-trap", 32, 0);
  spec.instances = {er, trap};
  spec.epsilons = {0.2};
  spec.seeds = {11, 12};
  const sweep::SweepResult serial = sweep::run_sweep(spec);
  spec.jobs = 4;
  const sweep::SweepResult parallel = sweep::run_sweep(spec);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const sweep::SweepRow& a = serial.rows[i];
    const sweep::SweepRow& b = parallel.rows[i];
    EXPECT_EQ(a.cell.solver, b.cell.solver);
    EXPECT_EQ(a.job.skipped, b.job.skipped);
    EXPECT_EQ(a.job.matching_weight, b.job.matching_weight);
    EXPECT_EQ(a.job.cost.passes, b.job.cost.passes);
    EXPECT_EQ(a.job.cost.memory_peak_words, b.job.cost.memory_peak_words);
    EXPECT_EQ(a.job.cost.bb_invocations, b.job.cost.bb_invocations);
    EXPECT_EQ(a.job.stats, b.job.stats);
  }
}

}  // namespace
}  // namespace wmatch
