// Deterministic, seedable random number generation.
//
// All randomized components in wmatch take an explicit Rng& so that every
// experiment and test is reproducible from a single seed. The engine is
// xoshiro256** seeded via splitmix64, which is fast, high quality, and
// stable across platforms (unlike std::default_random_engine).
#pragma once

#include <cstdint>
#include <vector>

namespace wmatch {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value (xoshiro256**; inline, it is on every hot loop).
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> and
  /// std::shuffle).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5);

  /// Derive an independent child generator (for parallel-in-spirit
  /// components that must not share a stream).
  Rng split();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Rng::next_below for one fixed bound, with the per-call work hoisted:
/// the rejection threshold is computed once, and the remainder replaces
/// the hardware divide by a multiply: with M = floor((2^64 - 1) / bound),
/// q = high 64 bits of r * M is floor(r / bound) or one less, so
/// r - q * bound lies in [0, 2 bound) and one conditional subtraction
/// makes it r mod bound, exactly, for every 64-bit r and bound >= 1.
/// Draws the same values as next_below(bound) and advances the generator
/// identically, so a loop may swap one for the other without moving any
/// downstream result.
class BoundedSampler {
 public:
  explicit BoundedSampler(std::uint64_t bound);

  std::uint64_t operator()(Rng& rng) const {
    for (;;) {
      const std::uint64_t r = rng.next();
      if (r >= threshold_) return fast_mod(r);
    }
  }

 private:
  __extension__ using U128 = unsigned __int128;

  std::uint64_t fast_mod(std::uint64_t r) const {
    const auto q =
        static_cast<std::uint64_t>((static_cast<U128>(r) * magic_) >> 64);
    std::uint64_t rem = r - q * bound_;
    if (rem >= bound_) rem -= bound_;
    return rem;
  }

  std::uint64_t bound_;
  std::uint64_t threshold_;
  std::uint64_t magic_;
};

}  // namespace wmatch
