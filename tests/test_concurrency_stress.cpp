// Concurrency stress harness (ISSUE 7 tentpole, part 1).
//
// The suites below exist to give ThreadSanitizer real interleavings to
// bite on: randomized job mixes through Scheduler + InstanceCache (shared
// in-flight builds, LRU churn), pool churn with nested parallel_for,
// trace-enabled runs hammering the per-thread obs ring buffers while the
// tracer starts/stops/writes, and raw multi-producer/multi-consumer
// JobQueue traffic under backpressure. Every test also asserts functional
// invariants (counts conserved, reports bit-identical to the serial
// reference), so the suite is meaningful in the plain CI lanes too — but
// its real acceptance criterion is "green under -fsanitize=thread at
// --threads=8" (the tsan CI job).
//
// Sizes are deliberately small: TSan runs 5-15x slower, and the point is
// interleaving density, not load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exact/hopcroft_karp.h"
#include "gen/generators.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "service/service.h"
#include "util/json_parse.h"
#include "util/rng.h"

namespace wmatch {
namespace {

/// Restores the tracer to its off/empty state no matter how a test exits.
struct TracingGuard {
  TracingGuard() { obs::reset_tracing(); }
  ~TracingGuard() { obs::reset_tracing(); }
};

api::GenSpec gen_spec(const std::string& generator, std::size_t n,
                      std::size_t m, std::uint64_t seed) {
  api::GenSpec g;
  g.generator = generator;
  g.n = n;
  g.m = m;
  g.seed = seed;
  return g;
}

/// A seeded mix of heterogeneous jobs: several solver kinds (streaming,
/// MPC, offline reduction, exact), several instance families, deliberate
/// key collisions (so concurrent jobs share in-flight cache builds), and
/// a sprinkle of intra-solver parallelism (nested pool batches).
std::vector<service::JobSpec> random_job_mix(std::size_t count,
                                             std::uint64_t seed) {
  const std::vector<std::string> solvers = {
      "greedy", "local-ratio", "rand-arrival", "reduction-hk",
      "reduction-exact"};
  Rng rng(seed);
  std::vector<service::JobSpec> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    service::JobSpec& job = jobs[i];
    job.id = "stress-" + std::to_string(i);
    job.solver = solvers[rng.next_below(solvers.size())];
    // Three instance keys only: collisions are the point (concurrent
    // misses of one key exercise the shared in-flight build path).
    switch (rng.next_below(3)) {
      case 0:
        job.source = gen_spec("erdos_renyi", 40, 120, 11);
        break;
      case 1:
        job.source = gen_spec("bipartite", 32, 90, 12);
        break;
      default:
        job.source = gen_spec("hard-four-cycle", 32, 0, 13);
        break;
    }
    job.spec.epsilon = rng.next_bool() ? 0.2 : 0.3;
    job.spec.seed = 100 + rng.next_below(3);
    // Some jobs run their solver's own loops on 2 threads: nested
    // run_batch inside a pool task is exactly the churn we want.
    job.spec.runtime.num_threads = rng.next_bool(0.3) ? 2 : 1;
  }
  return jobs;
}

void expect_identical_reports(const service::BatchResult& a,
                              const service::BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const service::JobResult& ra = a.results[i];
    const service::JobResult& rb = b.results[i];
    ASSERT_TRUE(ra.ok()) << ra.id << ": " << ra.error;
    ASSERT_TRUE(rb.ok()) << rb.id << ": " << rb.error;
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.matching_size, rb.matching_size) << ra.id;
    EXPECT_EQ(ra.matching_weight, rb.matching_weight) << ra.id;
    EXPECT_EQ(ra.cost.passes, rb.cost.passes) << ra.id;
    EXPECT_EQ(ra.cost.rounds, rb.cost.rounds) << ra.id;
    EXPECT_EQ(ra.cost.memory_peak_words, rb.cost.memory_peak_words) << ra.id;
    EXPECT_EQ(ra.cost.communication_words, rb.cost.communication_words)
        << ra.id;
    EXPECT_EQ(ra.cost.bb_invocations, rb.cost.bb_invocations) << ra.id;
  }
}

// ---- Scheduler + InstanceCache under randomized concurrent mixes ----

TEST(SchedulerStress, RandomizedJobMixBitIdenticalToSerial) {
  const std::vector<service::JobSpec> jobs = random_job_mix(24, 777);

  service::Scheduler serial({/*jobs=*/1, /*cache_capacity=*/2});
  const service::BatchResult reference = serial.run(jobs);

  // 8 concurrent jobs over a 2-entry cache: constant LRU eviction and
  // rebuilding of the three keys, with concurrent waiters piling onto
  // whichever build is in flight.
  service::Scheduler concurrent({/*jobs=*/8, /*cache_capacity=*/2});
  const service::BatchResult stressed = concurrent.run(jobs);
  expect_identical_reports(reference, stressed);

  // Conservation: every lookup is a hit or a miss, every miss inserts.
  const service::CacheStats s = concurrent.cache().stats();
  EXPECT_EQ(s.hits + s.misses, jobs.size());
  EXPECT_EQ(s.misses, s.inserts);
}

TEST(SchedulerStress, StreamWithConcurrentProducersMatchesSerial) {
  const std::size_t kProducers = 3;
  const std::size_t kPerProducer = 8;
  const std::vector<service::JobSpec> jobs =
      random_job_mix(kProducers * kPerProducer, 778);

  service::Scheduler serial({/*jobs=*/1});
  const service::BatchResult reference = serial.run(jobs);

  // Tiny queue so producers constantly block on backpressure while pool
  // workers drain chunks.
  service::JobQueue queue(2);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t index = p * kPerProducer + i;
        ASSERT_TRUE(queue.push({index, jobs[index]}));
      }
    });
  }
  service::Scheduler streaming({/*jobs=*/4});
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    queue.close();
  });
  const service::BatchResult streamed = streaming.run_stream(queue);
  closer.join();

  // run_stream promises submission order; with interleaved producers the
  // indices still come back 0..N-1 exactly once each.
  ASSERT_EQ(streamed.results.size(), jobs.size());
  for (std::size_t i = 0; i < streamed.results.size(); ++i) {
    EXPECT_EQ(streamed.results[i].index, i);
  }
  expect_identical_reports(reference, streamed);
}

// ---- Shared cached instance: concurrent adjacency first touch ----

// Under the old lazily-built Graph adjacency this scenario was a genuine
// data race: the first incident() call of every concurrent job raced on
// the mutable adj_built_ flag and the half-written CSR arrays, and
// hopcroft_karp carried a serial pre-touch workaround to hide it. The
// eager immutable GraphView moves the one-and-only build into the cache's
// instance construction; everything after is synchronization-free reads.
// TSan on this test was red under the lazy build and must stay green now.
TEST(SchedulerStress, ConcurrentAdjacencyFirstTouchOnSharedInstance) {
  // Every job names the SAME instance key: the first wave piles onto one
  // in-flight cache build, and all 12 jobs then traverse the one shared
  // view from their solvers' BFS/DFS loops (reduction-hk and
  // reduction-exact walk adjacency immediately and heavily).
  const std::vector<std::string> solvers = {"reduction-hk",
                                            "reduction-exact"};
  std::vector<service::JobSpec> jobs(12);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = "first-touch-" + std::to_string(i);
    jobs[i].solver = solvers[i % solvers.size()];
    jobs[i].source = gen_spec("bipartite", 48, 140, 21);
    jobs[i].spec.epsilon = 0.25;
    jobs[i].spec.seed = 7;
    // Half the jobs run their solver's own loops on 2 threads, so the
    // shared view is also read from nested pool workers.
    jobs[i].spec.runtime.num_threads = (i % 2) ? 2 : 1;
  }

  service::Scheduler serial({/*jobs=*/1});
  const service::BatchResult reference = serial.run(jobs);

  service::Scheduler concurrent({/*jobs=*/8, /*cache_capacity=*/4});
  const service::BatchResult stressed = concurrent.run(jobs);
  expect_identical_reports(reference, stressed);

  // One key only: every lookup is a hit or a miss and every miss inserts
  // (concurrent misses of the single key share the in-flight build).
  const service::CacheStats s = concurrent.cache().stats();
  EXPECT_EQ(s.hits + s.misses, jobs.size());
  EXPECT_EQ(s.misses, s.inserts);
}

TEST(GraphViewStress, ManyThreadsTraverseOneViewWithNoSynchronization) {
  // The data-plane sharing contract, distilled: one frozen view, eight
  // foreign threads running full HK solves and raw CSR scans against it
  // concurrently, no locks anywhere. The view has kParallelWorkCutoff
  // edges, so each solve also runs its BFS levels and DFS batches on the
  // shared 2-thread pool. Functional assertions keep the test meaningful
  // in plain lanes; TSan is the real judge.
  Rng rng(31);
  const GraphView g = freeze(gen::random_bipartite(
      128, 128, runtime::kParallelWorkCutoff, rng));
  const std::vector<char> side = exact::bipartition_of(g);
  ASSERT_FALSE(side.empty());
  const std::size_t ref_size = exact::hopcroft_karp(g, side).matching.size();

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      runtime::RuntimeConfig rt;
      rt.num_threads = 2;
      for (int rep = 0; rep < 3; ++rep) {
        const auto result = exact::hopcroft_karp(g, side, 0, nullptr, rt);
        EXPECT_EQ(result.matching.size(), ref_size);
        std::size_t slots = 0;
        for (Vertex v = 0; v < g.num_vertices(); ++v) slots += g.degree(v);
        EXPECT_EQ(slots, 2 * g.num_edges());
      }
    });
  }
  for (std::thread& t : readers) t.join();
}

// ---- Pool churn: nested batches, repeated submission, failure paths ----

TEST(PoolStress, NestedParallelForConservesWork) {
  runtime::ThreadPool& pool = runtime::pool_for(runtime::RuntimeConfig{8});
  for (int rep = 0; rep < 4; ++rep) {
    std::atomic<std::uint64_t> total{0};
    runtime::parallel_for(pool, 48, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        // A nested region on the same pool: the outer task helps drain
        // the inner batch (the deadlock-freedom contract).
        const std::uint64_t inner = runtime::parallel_reduce<std::uint64_t>(
            pool, 16, 1, 0,
            [](std::size_t a, std::size_t b) {
              std::uint64_t s = 0;
              for (std::size_t j = a; j < b; ++j) s += j;
              return s;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
        EXPECT_EQ(inner, 120u);  // 0+1+...+15
        total.fetch_add(inner, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(total.load(), 48u * 120u);
  }
}

TEST(PoolStress, PoolSurvivesThrowingBatchesUnderChurn) {
  runtime::ThreadPool& pool = runtime::pool_for(runtime::RuntimeConfig{4});
  for (int rep = 0; rep < 8; ++rep) {
    EXPECT_THROW(
        pool.run_batch(16,
                       [&](std::size_t i) {
                         if (i == 7) throw std::runtime_error("boom");
                       }),
        std::runtime_error);
    // The pool must come back clean: a full batch right after the failure
    // runs every slot.
    std::atomic<int> ran{0};
    pool.run_batch(16, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(PoolStress, ManyPoolsSubmitConcurrently) {
  // Two cached pools used from two external threads at once: pool state
  // (queues, sleep cv, pending counts) must tolerate foreign submitters.
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> drivers;
  for (std::size_t t = 0; t < 2; ++t) {
    drivers.emplace_back([&, t] {
      runtime::ThreadPool& pool = runtime::pool_for(
          runtime::RuntimeConfig{t == 0 ? std::size_t{4} : std::size_t{3}});
      for (int rep = 0; rep < 6; ++rep) {
        runtime::parallel_for(pool, 32, 1,
                              [&](std::size_t lo, std::size_t hi) {
                                sum.fetch_add(hi - lo,
                                              std::memory_order_relaxed);
                              });
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(sum.load(), 2u * 6u * 32u);
}

// ---- Tracer: concurrent spans vs start/stop/write/reset ----

TEST(TraceStress, ConcurrentSpansSurviveStartStopCyclesAndWrite) {
  TracingGuard guard;
  obs::start_tracing();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      obs::set_thread_name("stress-writer-" + std::to_string(t));
      while (!stop.load(std::memory_order_acquire)) {
        obs::Span outer("stress.outer", t);
        obs::Span inner("stress.inner");
        obs::Span leaf("stress.leaf", 42);
      }
    });
  }
  // Toggle the tracer under fire: spans opened while enabled may close
  // while disabled and vice versa — the buffer discipline (B always gets
  // its E, dropped Bs suppress their E) must hold through that.
  for (int cycle = 0; cycle < 10; ++cycle) {
    obs::stop_tracing();
    obs::start_tracing();
  }
  obs::stop_tracing();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  // The emitted document must be valid JSON with the standard envelope —
  // the nesting discipline itself is CI-checked by scripts/check_trace.py
  // on real CLI traces; here strict parsing plus balanced B/E via the
  // writer is the invariant.
  const util::JsonValue doc = util::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_NE(doc.find("otherData"), nullptr);
}

TEST(TraceStress, WriterRunsWhileSpansAreStillBeingRecorded) {
  TracingGuard guard;
  obs::start_tracing();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Throttled: the test is about the writer/recorder overlap, not
    // volume — an unthrottled spin fills the 2^23 ring between
    // snapshots and each snapshot then serializes + parses millions of
    // events (minutes under TSan).
    for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      obs::Span span("stress.live");
      if (i % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(1));
      }
    }
  });
  // Draining the buffers concurrently with an actively recording thread
  // is the serve-session snapshot path; every snapshot must parse.
  for (int i = 0; i < 3; ++i) {
    std::ostringstream os;
    obs::write_chrome_trace(os);
    const util::JsonValue doc = util::parse_json(os.str());
    ASSERT_TRUE(doc.is_object());
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  obs::stop_tracing();
  EXPECT_GE(obs::dropped_events(), 0u);
}

// ---- JobQueue: raw MPMC traffic under a tiny capacity ----

TEST(QueueStress, MpmcConservesSubmissionsUnderBackpressure) {
  const std::size_t kProducers = 3, kConsumers = 3, kPerProducer = 40;
  service::JobQueue queue(2);

  std::atomic<std::size_t> popped{0};
  std::mutex seen_mu;
  std::set<std::size_t> seen;
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::optional<service::Submission> s = queue.pop();
        if (!s) return;  // closed and drained
        ++popped;
        std::lock_guard<std::mutex> lk(seen_mu);
        EXPECT_TRUE(seen.insert(s->index).second)
            << "duplicate index " << s->index;
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        service::Submission s;
        s.index = p * kPerProducer + i;
        ASSERT_TRUE(queue.push(std::move(s)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();

  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(seen.size(), kProducers * kPerProducer);
  EXPECT_FALSE(queue.push({}));  // closed queue drops
}

TEST(QueueStress, CloseDiscardPendingWakesBlockedProducers) {
  service::JobQueue queue(1);
  ASSERT_TRUE(queue.push({0, {}}));  // queue now full
  std::atomic<int> rejected{0};
  std::vector<std::thread> blocked;
  for (int i = 0; i < 3; ++i) {
    blocked.emplace_back([&] {
      service::Submission s;
      s.index = 99;
      if (!queue.push(std::move(s))) ++rejected;
    });
  }
  queue.close(/*discard_pending=*/true);
  for (std::thread& t : blocked) t.join();
  EXPECT_EQ(rejected.load(), 3);
  EXPECT_FALSE(queue.pop().has_value());  // discarded, not drained
}

// ---- Metrics registry: concurrent updates vs snapshots ----

TEST(MetricsStress, ConcurrentUpdatesAndSnapshotsConserveCounts) {
  obs::Counter& hits = obs::counter("stress.hits");
  obs::Gauge& depth = obs::gauge("stress.depth");
  obs::Histogram& lat = obs::histogram("stress.lat_ms");
  hits.reset();
  depth.reset();
  lat.reset();

  const std::size_t kThreads = 4, kOps = 2000;
  std::vector<std::thread> updaters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    updaters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kOps; ++i) {
        hits.add();
        depth.set(static_cast<std::int64_t>(i));
        lat.observe(0.001 * static_cast<double>((t + i) % 64));
      }
    });
  }
  // Snapshots race the updates by design — they must parse and never
  // tear (each instrument read is atomic; totals are checked at the end).
  for (int i = 0; i < 10; ++i) {
    std::ostringstream os;
    obs::write_metrics_json(os);
    ASSERT_TRUE(util::parse_json(os.str()).is_object());
  }
  for (std::thread& t : updaters) t.join();

  EXPECT_EQ(hits.value(), kThreads * kOps);
  EXPECT_EQ(lat.count(), kThreads * kOps);
  EXPECT_EQ(depth.max(), static_cast<std::int64_t>(kOps - 1));
}

}  // namespace
}  // namespace wmatch
