#include "runtime/arena.h"

#include <algorithm>

#include "util/require.h"

namespace wmatch::runtime {

Arena::Chunk& Arena::chunk_with_room(std::size_t bytes) {
  // Advance past full chunks; reset() rewound used to 0 on all of them,
  // so previously-grown capacity is found again before anything new is
  // allocated.
  while (active_ < chunks_.size() &&
         chunks_[active_].used + bytes > chunks_[active_].size) {
    ++active_;
  }
  if (active_ == chunks_.size()) {
    const std::size_t last = chunks_.empty() ? initial_bytes_ / 2
                                             : chunks_.back().size;
    const std::size_t size = std::max(last * 2, bytes);
    chunks_.push_back({std::make_unique<std::byte[]>(size), size, 0});
    reserved_ += size;
  }
  return chunks_[active_];
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  WMATCH_REQUIRE(align != 0 && (align & (align - 1)) == 0,
                 "arena alignment must be a power of two");
  if (bytes == 0) bytes = 1;
  // Worst-case padded request keeps chunk selection simple; the actual
  // padding is computed against the chunk cursor below.
  Chunk& c = chunk_with_room(bytes + align - 1);
  const std::uintptr_t base =
      reinterpret_cast<std::uintptr_t>(c.data.get()) + c.used;
  const std::size_t pad = (align - base % align) % align;
  void* p = c.data.get() + c.used + pad;
  c.used += pad + bytes;
  in_use_ += pad + bytes;
  high_water_ = std::max(high_water_, in_use_);
  return p;
}

void Arena::reset() {
  for (Chunk& c : chunks_) c.used = 0;
  active_ = 0;
  in_use_ = 0;
}

Arena::Mark Arena::mark() const {
  return {active_, active_ < chunks_.size() ? chunks_[active_].used : 0,
          in_use_};
}

void Arena::rewind(const Mark& m) {
  // Chunks past the active one are always empty, so only those the cursor
  // moved into since `m` need clearing.
  for (std::size_t i = m.chunk; i < chunks_.size() && i <= active_; ++i) {
    chunks_[i].used = i == m.chunk ? m.used : 0;
  }
  active_ = m.chunk;
  in_use_ = m.in_use;
}

Arena& ArenaPool::arena(std::size_t i) {
  while (arenas_.size() <= i) {
    arenas_.push_back(std::make_unique<Arena>());
  }
  return *arenas_[i];
}

void ArenaPool::reset_all() {
  for (auto& a : arenas_) a->reset();
}

std::size_t ArenaPool::total_high_water() const {
  std::size_t total = 0;
  for (const auto& a : arenas_) total += a->high_water();
  return total;
}

}  // namespace wmatch::runtime
