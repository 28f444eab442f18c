// Work-stealing thread pool.
//
// Each worker owns a deque of tasks: it pops its own newest task (LIFO,
// cache-hot and — for nested regions — the one whose completion unblocks
// it) and steals the oldest task of a victim when its own deque is empty
// (FIFO, which takes the largest untouched chunks first). The thread that
// submits a batch participates in execution while it waits, so nested
// parallel regions (a task that itself calls parallel_for on the same
// pool) cannot deadlock.
//
// A pool constructed with num_threads == 1 spawns no workers and runs
// every batch inline on the calling thread — that is the library's
// sequential reference path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/runtime.h"

namespace wmatch::runtime {

class ThreadPool {
 public:
  /// num_threads counts the submitting thread: the pool spawns
  /// num_threads - 1 workers (0 resolves via resolve_num_threads).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Invokes task(i) for every i in [0, num_tasks), possibly concurrently,
  /// and blocks until every invocation finished. The first exception
  /// thrown by any invocation is rethrown here; once one task has thrown,
  /// tasks that have not started yet are skipped (their slots complete
  /// without running the body). The pool remains usable afterwards.
  void run_batch(std::size_t num_tasks,
                 const std::function<void(std::size_t)>& task);

 private:
  struct Batch;
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> q;
  };

  void worker_loop(std::size_t self);
  /// Runs one task: own deque first (self < queue count), then steals.
  /// self may be out of range for external (non-worker) threads.
  bool try_run_one(std::size_t self);
  void push_task(std::size_t queue_hint, std::function<void()> fn);
  std::size_t current_worker_index() const;

  std::size_t num_threads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
};

/// Shared pool for a given configuration. Pools are created lazily, cached
/// per resolved thread count, and live for the process lifetime, so model
/// code can resolve its RuntimeConfig on every call without paying thread
/// spawn costs.
ThreadPool& pool_for(const RuntimeConfig& config);

/// Work (edges a region scans, or its equivalent) below which a nested
/// parallel region runs sequentially. Regions nested inside a class task
/// (Hopcroft–Karp layers, MPC filtering rounds, layered-graph gap
/// filtering, short-augmentation trials) are tiny on the reduction's
/// layered graphs; dispatching them would make the waiting thread help by
/// running whatever is queued, sibling classes included, and stall the
/// round behind them. Every such region's result is independent of the
/// pool, so the cutoff moves wall clock only.
inline constexpr std::size_t kParallelWorkCutoff = 4096;

/// pool_for(config) for a region of `work` units, or the sequential pool
/// when `work` is below kParallelWorkCutoff.
ThreadPool& pool_for_work(const RuntimeConfig& config, std::size_t work);

}  // namespace wmatch::runtime
