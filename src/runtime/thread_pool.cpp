#include "runtime/thread_pool.h"

#include <limits>
#include <map>

#include "obs/obs.h"

namespace wmatch::runtime {

namespace {

constexpr std::size_t kNotAWorker = std::numeric_limits<std::size_t>::max();

/// Pool instrumentation (obs/). References are resolved once; updates are
/// relaxed atomics, and the pool.task span costs one relaxed load when
/// tracing is off. None of it feeds back into task scheduling, so
/// results and counters are unchanged by observation.
struct PoolMetrics {
  obs::Counter& tasks_run = obs::counter("pool.tasks_run");
  obs::Counter& steals = obs::counter("pool.steals");
  obs::Counter& busy_ns = obs::counter("pool.busy_ns");
  obs::Counter& idle_ns = obs::counter("pool.idle_ns");
  obs::Gauge& queue_depth = obs::gauge("pool.queue_depth");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

/// Identifies the pool/worker the current thread belongs to, so nested
/// run_batch calls push to their own deque and help from it.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = kNotAWorker;
};
thread_local WorkerIdentity tls_identity;

}  // namespace

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t task_seed(std::uint64_t base, std::uint64_t task_index) {
  // splitmix64 finalizer over a task-indexed stride of the base seed. The
  // odd multiplier separates consecutive indices by far more than the
  // golden-gamma stride Rng's own constructor uses, so sibling task
  // streams do not overlap in practice.
  std::uint64_t z = base + (task_index + 1) * 0xd1342543de82ef95ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ThreadPool::Batch {
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mu;
  std::condition_variable done;
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(resolve_num_threads(num_threads)) {
  const std::size_t workers = num_threads_ - 1;
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ThreadPool::current_worker_index() const {
  return tls_identity.pool == this ? tls_identity.index : kNotAWorker;
}

void ThreadPool::push_task(std::size_t queue_hint, std::function<void()> fn) {
  WorkerQueue& w = *queues_[queue_hint % queues_.size()];
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.q.push_back(std::move(fn));
  }
  pool_metrics().queue_depth.set(
      static_cast<std::int64_t>(pending_.fetch_add(1) + 1));
  {
    // Fence against a worker that evaluated the sleep predicate before the
    // pending_ increment but has not released sleep_mu_ into the wait yet.
    std::lock_guard<std::mutex> lk(sleep_mu_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t self) {
  std::function<void()> fn;
  const std::size_t k = queues_.size();
  bool stolen = false;
  if (self < k) {
    WorkerQueue& w = *queues_[self];
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.q.empty()) {
      fn = std::move(w.q.back());
      w.q.pop_back();
    }
  }
  if (!fn) {
    const std::size_t start = self < k ? self : 0;
    for (std::size_t d = 1; d <= k && !fn; ++d) {
      WorkerQueue& w = *queues_[(start + d) % k];
      std::lock_guard<std::mutex> lk(w.mu);
      if (!w.q.empty()) {
        fn = std::move(w.q.front());
        w.q.pop_front();
        stolen = true;
      }
    }
  }
  if (!fn) return false;
  pending_.fetch_sub(1);
  PoolMetrics& m = pool_metrics();
  m.tasks_run.add();
  if (stolen) m.steals.add();
  const std::uint64_t t0 = obs::monotonic_ns();
  {
    obs::Span span("pool.task");
    fn();
  }
  m.busy_ns.add(obs::monotonic_ns() - t0);
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_identity = {this, self};
  obs::set_thread_name("pool-worker-" + std::to_string(self));
  for (;;) {
    if (try_run_one(self)) continue;
    const std::uint64_t t0 = obs::monotonic_ns();
    {
      std::unique_lock<std::mutex> lk(sleep_mu_);
      sleep_cv_.wait(lk, [&] { return stop_.load() || pending_.load() > 0; });
    }
    pool_metrics().idle_ns.add(obs::monotonic_ns() - t0);
    if (stop_.load() && pending_.load() == 0) return;
  }
}

void ThreadPool::run_batch(std::size_t num_tasks,
                           const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  if (queues_.empty() || num_tasks == 1) {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->remaining.store(num_tasks);
  const std::size_t self = current_worker_index();
  const std::size_t base = self == kNotAWorker ? 0 : self;
  for (std::size_t i = 0; i < num_tasks; ++i) {
    push_task(base + i, [batch, &task, i] {
      if (!batch->failed.load(std::memory_order_relaxed)) {
        try {
          task(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(batch->mu);
          if (!batch->error) batch->error = std::current_exception();
          batch->failed.store(true);
        }
      }
      if (batch->remaining.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lk(batch->mu);
        batch->done.notify_all();
      }
    });
  }

  // Help while waiting: keeps the submitting thread productive and makes
  // nested batches (submitted from worker tasks) deadlock-free.
  while (batch->remaining.load() != 0) {
    if (!try_run_one(self)) {
      std::unique_lock<std::mutex> lk(batch->mu);
      batch->done.wait(lk, [&] { return batch->remaining.load() == 0; });
    }
  }
  if (batch->failed.load()) std::rethrow_exception(batch->error);
}

ThreadPool& pool_for(const RuntimeConfig& config) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  const std::size_t n = resolve_num_threads(config.num_threads);
  std::lock_guard<std::mutex> lk(mu);
  auto& pool = pools[n];
  if (!pool) pool = std::make_unique<ThreadPool>(n);
  return *pool;
}

ThreadPool& pool_for_work(const RuntimeConfig& config, std::size_t work) {
  return pool_for(work >= kParallelWorkCutoff ? config : RuntimeConfig{1});
}

}  // namespace wmatch::runtime
