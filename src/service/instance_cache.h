// Shared-instance LRU cache for the batch-solving service (ISSUE 5).
//
// Instance generation (and the optional exact optimum) often dominates a
// small solve, and batch workloads repeat families: every sweep cell of
// one (family, seed) pair, every job in a jobs file that varies only the
// solver, every request of a long `serve` session replaying a canonical
// instance. The cache generates each keyed instance once and hands out
// shared read-only views; solvers never mutate an Instance, so concurrent
// jobs can consume one entry safely.
//
// Concurrency contract: the first requester of a key builds the instance
// outside the cache lock; requesters that arrive while the build is in
// flight wait on it and count as HITS (they amortized generation), so the
// hit/miss totals of a batch are a function of the job set and capacity,
// not the schedule, as long as capacity covers the distinct keys.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "api/api.h"

namespace wmatch::service {

/// An immutable cached instance plus lazily computed optima. `optimum` is
/// mutex-guarded so concurrent jobs compute each objective's optimum once;
/// the value is deterministic, so it does not matter which job wins.
class CachedInstance {
 public:
  explicit CachedInstance(api::Instance inst);

  const api::Instance& instance() const { return inst_; }

  /// Optimum of the requested objective: the planted optimum when the
  /// family carries one (unit-weight instances serve both objectives from
  /// it), otherwise an exact Blossom solve — but only when `allow_exact`;
  /// -1 when unknown and exact solves are not allowed. Without
  /// allow_exact the answer never includes a Blossom value cached by
  /// another job, so what a job reports is independent of batch
  /// composition and scheduling order. Mirrors the sweep layer's
  /// pre-service InstanceSlot semantics.
  double optimum(bool cardinality, bool allow_exact) const;

  /// Caches `achieved`, the value an exact solver (registered guarantee
  /// 1.0) reached on this instance, as the optimum of its objective when
  /// none is cached and no planted optimum serves it, so a later
  /// allow_exact query runs no Blossom solve. The optimum is unique, so
  /// what optimum() returns does not depend on which job cached it.
  void record_optimum(bool cardinality, double achieved) const;

 private:
  api::Instance inst_;
  bool unit_weights_ = false;
  mutable std::mutex mu_;
  mutable double weight_opt_ = -1.0, card_opt_ = -1.0;
};

struct CacheStats {
  std::size_t hits = 0;        ///< served from cache (incl. in-flight waits)
  std::size_t misses = 0;      ///< triggered a build
  std::size_t evictions = 0;   ///< LRU entries dropped to respect capacity
  std::size_t inserts = 0;     ///< completed builds stored
  std::size_t size = 0;        ///< resident completed entries
};

class InstanceCache {
 public:
  /// `capacity` bounds the number of resident completed entries (>= 1).
  /// In-flight builds are not counted against it (they are pinned by the
  /// jobs waiting on them).
  explicit InstanceCache(std::size_t capacity);

  using Builder = std::function<api::Instance()>;

  /// Returns the entry for `key`, building it with `build` on a miss.
  /// `build` runs outside the cache lock; when it throws, the in-flight
  /// marker is removed (waiters retry, typically re-throwing the same
  /// error) and the exception propagates. `*hit` (optional) reports
  /// whether this call avoided a build.
  std::shared_ptr<const CachedInstance> get_or_build(const std::string& key,
                                                     const Builder& build,
                                                     bool* hit = nullptr);

  CacheStats stats() const;
  std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const CachedInstance> value;  ///< null while building
    bool building = false;
    /// Recency position in lru_ (valid once built).
    std::list<std::string>::iterator lru_pos;
  };

  void touch(Entry& e, const std::string& key);
  void evict_excess();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable built_cv_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recently used
  CacheStats stats_;
};

}  // namespace wmatch::service
