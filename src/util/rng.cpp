#include "util/rng.h"

#include "util/require.h"

namespace wmatch {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  WMATCH_REQUIRE(bound > 0, "next_below requires positive bound");
  // Lemire rejection-free-ish method with rejection for exactness.
  std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

BoundedSampler::BoundedSampler(std::uint64_t bound)
    : bound_(bound), threshold_(0), magic_(0) {
  WMATCH_REQUIRE(bound > 0, "BoundedSampler requires positive bound");
  threshold_ = (~bound + 1) % bound;  // same threshold as next_below
  // ceil(2^128 / bound); wraps to 0 for bound == 1, where every
  // remainder is 0 anyway.
  magic_ = ~U128{0} / bound + 1;
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  WMATCH_REQUIRE(lo <= hi, "next_int requires lo <= hi");
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_double() < p; }

Rng Rng::split() { return Rng(next()); }

}  // namespace wmatch
