#include "service/instance_cache.h"

#include <algorithm>
#include <utility>

#include "exact/blossom.h"
#include "exact/hopcroft_karp.h"
#include "obs/obs.h"
#include "util/require.h"

namespace wmatch::service {

namespace {

/// Cache instrumentation: mirrors CacheStats into the process-wide obs
/// registry (CacheStats stays per-cache; the registry aggregates across
/// every InstanceCache in the process).
struct CacheMetrics {
  obs::Counter& hits = obs::counter("cache.hits");
  obs::Counter& misses = obs::counter("cache.misses");
  obs::Counter& evictions = obs::counter("cache.evictions");
  obs::Counter& inserts = obs::counter("cache.inserts");
  obs::Histogram& build_ms = obs::histogram("cache.build_ms");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

CachedInstance::CachedInstance(api::Instance inst) : inst_(std::move(inst)) {
  const auto& edges = inst_.graph.edges();
  unit_weights_ = std::all_of(edges.begin(), edges.end(),
                              [](const Edge& e) { return e.w == 1; });
}

double CachedInstance::optimum(bool cardinality, bool allow_exact) const {
  // Without allow_exact only the planted optimum may be reported — NOT a
  // Blossom result another job happened to cache on this shared entry:
  // otherwise whether a job's report carries an optimum would depend on
  // batch composition and scheduling order, breaking the per-job
  // serial-equivalence contract.
  const bool weight_objective = !cardinality || unit_weights_;
  if (!allow_exact) {
    // Unit-weight instances serve the cardinality objective from the
    // planted weight optimum; otherwise a planted weight says nothing
    // about cardinality.
    return weight_objective && inst_.has_known_optimum()
               ? static_cast<double>(inst_.known_optimal_weight)
               : -1.0;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (weight_objective) {
    if (weight_opt_ < 0.0) {
      weight_opt_ =
          inst_.has_known_optimum()
              ? static_cast<double>(inst_.known_optimal_weight)
              : static_cast<double>(
                    exact::blossom_max_weight(inst_.graph).weight());
    }
    return weight_opt_;
  }
  if (card_opt_ < 0.0) {
    // A maximum matching's size is unique, so Hopcroft-Karp's equals
    // Blossom's wherever a bipartition is known.
    card_opt_ = static_cast<double>(
        inst_.is_bipartite()
            ? exact::hopcroft_karp(inst_.graph, inst_.side).matching.size()
            : exact::blossom_max_weight(inst_.graph, true).size());
  }
  return card_opt_;
}

InstanceCache::InstanceCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

void InstanceCache::touch(Entry& e, const std::string& key) {
  lru_.erase(e.lru_pos);
  lru_.push_front(key);
  e.lru_pos = lru_.begin();
}

void InstanceCache::evict_excess() {
  while (lru_.size() > capacity_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
    cache_metrics().evictions.add();
  }
}

std::shared_ptr<const CachedInstance> InstanceCache::get_or_build(
    const std::string& key, const Builder& build, bool* hit) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // miss: this caller builds
    if (it->second.value) {
      ++stats_.hits;
      cache_metrics().hits.add();
      touch(it->second, key);
      if (hit) *hit = true;
      return it->second.value;
    }
    // Another job is building this key: wait and share its result. The
    // wait counts as a hit — generation was amortized, which is what the
    // counter reports. A failed build erases the entry; the loop then
    // falls through to a fresh build by this caller.
    built_cv_.wait(lk);
  }
  ++stats_.misses;
  cache_metrics().misses.add();
  entries_[key].building = true;
  lk.unlock();

  std::shared_ptr<const CachedInstance> value;
  try {
    obs::Span build_span("cache.build");
    const std::uint64_t t0 = obs::monotonic_ns();
    value = std::make_shared<const CachedInstance>(build());
    cache_metrics().build_ms.observe(
        static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
  } catch (...) {
    lk.lock();
    entries_.erase(key);
    built_cv_.notify_all();
    throw;
  }

  lk.lock();
  Entry& e = entries_[key];
  e.value = value;
  e.building = false;
  lru_.push_front(key);
  e.lru_pos = lru_.begin();
  ++stats_.inserts;
  cache_metrics().inserts.add();
  evict_excess();
  built_cv_.notify_all();
  if (hit) *hit = false;
  return value;
}

CacheStats InstanceCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  CacheStats s = stats_;
  s.size = lru_.size();
  return s;
}

void InstanceCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.clear();
  lru_.clear();
  stats_ = CacheStats{};
}

}  // namespace wmatch::service
