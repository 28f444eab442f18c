// Arena / ArenaAllocator / ArenaPool semantics (ISSUE 9 satellite).
//
// The property the data plane depends on: reset() rewinds, it never
// frees, so steady-state rounds reuse the same chunks and bytes_reserved
// stabilizes after the first round — including when the per-slot arenas
// are used from concurrent outer tasks that each run a nested
// parallel_for (the fork_for_class shape in core/main_alg.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "runtime/arena.h"
#include "runtime/parallel.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"

namespace wmatch::runtime {
namespace {

TEST(Arena, AllocationsAreAlignedAndCounted) {
  Arena a(128);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.bytes_reserved(), 0u);  // first chunk is lazy
  void* p = a.allocate(10, 8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
  void* q = a.allocate(1, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 64, 0u);
  EXPECT_GE(a.bytes_in_use(), 11u);
  EXPECT_GE(a.bytes_reserved(), a.bytes_in_use());
  std::memset(p, 0xab, 10);  // the storage is really writable
}

TEST(Arena, GrowsAcrossChunksWhenARequestOverflows) {
  Arena a(64);
  void* p = a.allocate(48, 8);
  void* q = a.allocate(200, 8);  // cannot fit the first chunk
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_GE(a.bytes_reserved(), 248u);
  std::memset(q, 0xcd, 200);
}

TEST(Arena, ResetRewindsWithoutFreeing) {
  Arena a(256);
  void* first = a.allocate(100, 8);
  a.allocate(100, 8);
  const std::size_t reserved = a.bytes_reserved();
  const std::size_t peak = a.bytes_in_use();
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.bytes_reserved(), reserved);  // chunks kept
  EXPECT_EQ(a.high_water(), peak);
  // The bump cursor rewound: the same storage is handed out again.
  EXPECT_EQ(a.allocate(100, 8), first);
}

TEST(Arena, RewindReusesTheSameBytesAndResetKeepsTheChunks) {
  Arena a(128);
  void* kept = a.allocate(40, 8);
  const Arena::Mark m = a.mark();
  const std::size_t in_use = a.bytes_in_use();
  void* first = a.allocate(40, 8);
  a.allocate(500, 8);  // overflows into a new chunk
  const std::size_t reserved = a.bytes_reserved();
  a.rewind(m);
  EXPECT_EQ(a.bytes_in_use(), in_use);
  EXPECT_EQ(a.bytes_reserved(), reserved);  // chunks kept
  // The same bytes are handed out again, in the same order.
  EXPECT_EQ(a.allocate(40, 8), first);
  const std::size_t before_scope = a.bytes_in_use();
  {
    const ArenaRewind scope(&a);
    a.allocate(64, 8);  // overflows the first chunk again
  }
  EXPECT_EQ(a.bytes_in_use(), before_scope);
  a.allocate(500, 8);
  EXPECT_EQ(a.bytes_reserved(), reserved);  // the grown chunk is reused
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(a.bytes_reserved(), reserved);
  EXPECT_EQ(a.allocate(40, 8), kept);
}

TEST(Arena, ScopedRewindHoldsTheLargestCallNotTheSum) {
  Arena a(256);
  for (int call = 1; call <= 8; ++call) {
    const ArenaRewind scope(&a);
    a.allocate(100 * static_cast<std::size_t>(call), 8);
  }
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_GE(a.high_water(), 800u);
  EXPECT_LT(a.high_water(), 800u + 8u);  // one call's bytes plus padding
  const ArenaRewind null_scope(nullptr);  // heap fallback: a no-op
}

TEST(Arena, ReservationStabilizesAfterFirstRound) {
  Arena a(128);
  std::size_t reserved_after_round1 = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 32; ++i) a.allocate(96, 8);
    if (round == 0) {
      reserved_after_round1 = a.bytes_reserved();
    } else {
      EXPECT_EQ(a.bytes_reserved(), reserved_after_round1) << round;
    }
    EXPECT_EQ(a.high_water(), a.bytes_in_use());  // same pattern every round
    a.reset();
  }
}

TEST(ArenaAllocator, NullArenaDegradesToHeap) {
  ArenaVector<int> v;  // default allocator: no arena
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 499500);
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
}

TEST(ArenaAllocator, EqualityFollowsTheArena) {
  Arena a, b;
  EXPECT_TRUE(ArenaAllocator<int>(&a) == ArenaAllocator<char>(&a));
  EXPECT_FALSE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&b));
  EXPECT_TRUE(ArenaAllocator<int>() == ArenaAllocator<double>());
}

TEST(ArenaAllocator, VectorsDrawFromTheArena) {
  Arena a;
  {
    ArenaVector<std::uint32_t> v{ArenaAllocator<std::uint32_t>(&a)};
    v.assign(4096, 7u);
    EXPECT_GE(a.bytes_in_use(), 4096 * sizeof(std::uint32_t));
    for (std::uint32_t x : v) ASSERT_EQ(x, 7u);
  }  // destructor deallocates: a no-op on arena memory
  EXPECT_GT(a.bytes_in_use(), 0u);  // only reset() reclaims
  a.reset();
  EXPECT_EQ(a.bytes_in_use(), 0u);
}

TEST(ArenaPool, GrowsOnDemandAndResetsAll) {
  ArenaPool pool;
  EXPECT_EQ(pool.size(), 0u);
  pool.arena(3).allocate(100, 8);
  EXPECT_EQ(pool.size(), 4u);
  pool.arena(0).allocate(50, 8);
  EXPECT_GE(pool.total_high_water(), 150u);
  pool.reset_all();
  EXPECT_EQ(pool.arena(0).bytes_in_use(), 0u);
  EXPECT_EQ(pool.arena(3).bytes_in_use(), 0u);
  EXPECT_GE(pool.total_high_water(), 150u);  // high water survives reset
}

// The fork_for_class shape: an outer batch runs one task per ladder slot,
// each task allocates its scratch from its own arena (on the task's
// thread, before any nested region), then runs a nested parallel_for over
// that scratch on the same pool. Rounds are separated by a serial
// reset_all() barrier; reservations must stop growing after round 1.
TEST(ArenaPool, PerSlotArenasUnderNestedParallelFor) {
  const std::size_t slots = 8;
  const std::size_t scratch_n = 4096;
  ThreadPool& pool = pool_for(RuntimeConfig{4});
  ArenaPool arenas;
  for (std::size_t i = 0; i < slots; ++i) arenas.arena(i);  // serial grow

  std::vector<std::uint64_t> sums(slots, 0);
  std::size_t reserved_after_round1 = 0;
  for (int round = 0; round < 4; ++round) {
    pool.run_batch(slots, [&](std::size_t slot) {
      Arena& a = arenas.arena(slot);
      ArenaVector<std::uint32_t> scratch{ArenaAllocator<std::uint32_t>(&a)};
      scratch.assign(scratch_n, 0);  // allocated before the nested region
      parallel_for(pool, scratch_n, 256, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          scratch[i] = static_cast<std::uint32_t>(slot * scratch_n + i);
        }
      });
      std::uint64_t sum = 0;
      for (std::uint32_t x : scratch) sum += x;
      sums[slot] = sum;
    });
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const std::uint64_t base = static_cast<std::uint64_t>(slot) * scratch_n;
      const std::uint64_t expect =
          base * scratch_n + std::uint64_t{scratch_n} * (scratch_n - 1) / 2;
      EXPECT_EQ(sums[slot], expect) << "slot " << slot << " round " << round;
    }
    std::size_t reserved = 0;
    for (std::size_t i = 0; i < slots; ++i) {
      reserved += arenas.arena(i).bytes_reserved();
    }
    if (round == 0) {
      reserved_after_round1 = reserved;
    } else {
      EXPECT_EQ(reserved, reserved_after_round1) << "round " << round;
    }
    arenas.reset_all();  // the round barrier, on the calling thread
  }
}

}  // namespace
}  // namespace wmatch::runtime
