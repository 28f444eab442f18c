// Word-parallel bit sets over caller-owned uint64_t words.
//
// The HK frontier expansion packs 64 vertices per word so the visited /
// claimed sets live in n/8 bytes and frontier scans chunk over whole
// words. These are free functions over spans (not an owning class) so the
// words can come from any storage — a plain vector, or a runtime::Arena
// via ArenaAllocator.
//
// Concurrency contract: `bit_test_and_set_atomic` is the only operation
// safe under concurrent writers (it is the claim primitive — exactly one
// caller wins a bit). Everything else assumes exclusive or read-only
// access to the touched word.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <span>

namespace wmatch::util {

inline constexpr std::size_t kBitsPerWord = 64;

constexpr std::size_t bitset_words(std::size_t bits) {
  return (bits + kBitsPerWord - 1) / kBitsPerWord;
}

inline bool bit_test(std::span<const std::uint64_t> words, std::size_t i) {
  return (words[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
}

inline void bit_set(std::span<std::uint64_t> words, std::size_t i) {
  words[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
}

/// Atomically sets bit i; returns true iff this call flipped it 0 -> 1.
/// Relaxed order: the bit is a pure claim token, the data it guards is
/// published by the parallel_reduce barrier, not by this operation. A bit
/// already seen set is lost without the read-modify-write: a set bit is
/// never cleared while claims run.
inline bool bit_test_and_set_atomic(std::span<std::uint64_t> words,
                                    std::size_t i) {
  const std::uint64_t mask = std::uint64_t{1} << (i % kBitsPerWord);
  std::atomic_ref<std::uint64_t> word(words[i / kBitsPerWord]);
  if (word.load(std::memory_order_relaxed) & mask) return false;
  return (word.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
}

/// Atomically sets bit i without reporting the previous value.
inline void bit_set_atomic(std::span<std::uint64_t> words, std::size_t i) {
  std::atomic_ref<std::uint64_t>(words[i / kBitsPerWord])
      .fetch_or(std::uint64_t{1} << (i % kBitsPerWord),
                std::memory_order_relaxed);
}

/// Calls fn(index) for every set bit of `word`, ascending; `base` is the
/// bit index of the word's LSB. Ascending order is what makes the bitset
/// frontier deterministic: a word's vertices expand in index order, the
/// same order for every thread count.
template <typename Fn>
void for_each_set_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    const int bit = std::countr_zero(word);
    fn(base + static_cast<std::size_t>(bit));
    word &= word - 1;  // clear lowest set bit
  }
}

}  // namespace wmatch::util
