#include "host_probe.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr int kSide = 1000;
constexpr int kEdges = 4000;
/// The size of a maximum matching of the probe graph; a run that finds
/// another size did not run the reference computation.
constexpr int kExpectedMatching = 978;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostProbe::HostProbe() : adj_(kSide) {
  std::uint64_t x = 12345;
  for (int i = 0; i < kEdges; ++i) {
    const int u = static_cast<int>(xorshift(x) % kSide);
    adj_[u].push_back(static_cast<int>(xorshift(x) % kSide));
  }
}

bool HostProbe::augment(int u) {
  for (int v : adj_[u]) {
    if (seen_[v] == stamp_) continue;
    seen_[v] = stamp_;
    if (match_[v] < 0 || augment(match_[v])) {
      match_[v] = u;
      return true;
    }
  }
  return false;
}

void HostProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  match_.assign(kSide, -1);
  seen_.assign(kSide, 0);
  int size = 0;
  for (int u = 0; u < kSide; ++u) {
    ++stamp_;
    if (augment(u)) ++size;
  }
  const std::chrono::duration<double, std::milli> ms =
      std::chrono::steady_clock::now() - t0;
  if (size != kExpectedMatching) {
    throw std::logic_error("host probe found a matching of the wrong size");
  }
  ms_.push_back(ms.count());
}

double HostProbe::median_ms() const {
  if (ms_.empty()) return kReferenceMs;
  std::vector<double> v = ms_;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

}  // namespace perfbench
