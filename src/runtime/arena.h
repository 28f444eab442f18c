// Bump-pointer arena for per-round fork scratch state.
//
// Every reduction round forks one sub-matcher per weight class
// (core/main_alg.cpp), and before this existed each fork re-allocated its
// O(n) scratch vectors from the heap every round. An Arena turns that
// into pointer bumps: the round barrier calls reset(), which rewinds the
// cursor but KEEPS the chunks, so steady-state rounds allocate nothing
// from the OS at all.
//
// Threading contract: an Arena is NOT thread-safe. Each forked class owns
// its own Arena (one per ladder slot, from an ArenaPool) and must only
// allocate from the thread running that class's task, outside any nested
// parallel region. The parallel BFS chunks inside Hopcroft-Karp never
// allocate from the arena — per-invocation scratch is carved before the
// parallel region starts and rewound (ArenaRewind) when the call returns
// (see exact/hopcroft_karp.cpp). Lifetime rules in DESIGN.md §10.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace wmatch::runtime {

class Arena {
 public:
  /// First chunk is allocated lazily, at `initial_bytes` (later chunks
  /// grow geometrically).
  explicit Arena(std::size_t initial_bytes = 1 << 16)
      : initial_bytes_(initial_bytes < 64 ? 64 : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Rewinds the cursor to empty, keeping every chunk for reuse.
  void reset();

  /// A cursor position, for handing back everything allocated after it.
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
    std::size_t in_use = 0;
  };

  /// The current cursor position.
  Mark mark() const;

  /// Rewinds the cursor to `m` (taken from this arena since its last
  /// reset()), keeping every chunk; storage allocated after `m` is handed
  /// out again by the next allocations.
  void rewind(const Mark& m);

  /// Bytes handed out since the last reset (including alignment padding).
  std::size_t bytes_in_use() const { return in_use_; }

  /// Total capacity held across chunks.
  std::size_t bytes_reserved() const { return reserved_; }

  /// Largest bytes_in_use() ever observed.
  std::size_t high_water() const { return high_water_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Chunk& chunk_with_room(std::size_t bytes);

  std::size_t initial_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // chunks_[active_] is being filled
  std::size_t in_use_ = 0;
  std::size_t reserved_ = 0;
  std::size_t high_water_ = 0;
};

/// Rewinds an arena to where it stood at construction when the scope
/// ends: per-call scratch that must not outlive the call. A null arena is
/// a no-op, like ArenaAllocator's heap fallback.
class ArenaRewind {
 public:
  explicit ArenaRewind(Arena* arena)
      : arena_(arena), mark_(arena ? arena->mark() : Arena::Mark{}) {}
  ~ArenaRewind() {
    if (arena_ != nullptr) arena_->rewind(mark_);
  }
  ArenaRewind(const ArenaRewind&) = delete;
  ArenaRewind& operator=(const ArenaRewind&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// std::allocator-compatible adapter. With a null arena it degrades to the
/// heap (so arena use stays optional at every call site); with an arena,
/// deallocate is a no-op and memory is reclaimed wholesale by reset() or
/// rewind().
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator(Arena* arena = nullptr) : arena_(arena) {}  // NOLINT
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other)  // NOLINT
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ == nullptr) return std::allocator<T>{}.allocate(n);
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (arena_ == nullptr) std::allocator<T>{}.deallocate(p, n);
    // Arena memory is reclaimed by reset() or rewind(), never piecewise.
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

/// A std::vector drawing from an Arena (heap when the arena is null).
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// One Arena per weight-class slot, reused round over round. Grown on
/// demand (ladders change size between rounds), reset at round barriers.
/// arena(i) for distinct i may be used from distinct threads concurrently;
/// growing and resetting are the caller's (serial) job.
class ArenaPool {
 public:
  /// The arena for slot i, growing the pool as needed. Serial-only.
  Arena& arena(std::size_t i);

  /// Rewinds every arena (round barrier). Serial-only.
  void reset_all();

  std::size_t size() const { return arenas_.size(); }

  /// Sum of high_water() across arenas, for tests and metrics.
  std::size_t total_high_water() const;

 private:
  std::vector<std::unique_ptr<Arena>> arenas_;
};

}  // namespace wmatch::runtime
