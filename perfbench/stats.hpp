#pragma once
// The benchmark's own order statistics. Host timings are reported as
// medians over repeats and as a tail percentile over job samples; nothing
// here reads a timing the simulator's bench_meter computed.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median; 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, computed like Python's
/// statistics.quantiles(v, n=4) (the default 'exclusive' method).
/// Needs at least two samples; with fewer both quartiles are the sample.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v.front();
    return {x, x};
  }
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  const auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;  // may fall outside [0, 4]: extrapolates
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4.0;
  };
  return {cut(1), cut(3)};
}

/// The highest whole percentile that leaves at least `min_beyond` samples
/// above it (nearest-rank), with the numbers needed to read it.
struct Tail {
  double value = 0.0;
  unsigned percentile = 0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

inline Tail tail_percentile(std::vector<double> v, std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= min_beyond) {
    t.value = v.back();
    t.percentile = 100;
    return t;
  }
  // Largest p with n - ceil(p/100 * n) >= min_beyond.
  unsigned p = static_cast<unsigned>(
      std::floor(100.0 * static_cast<double>(n - min_beyond) / static_cast<double>(n)));
  std::size_t rank = 0;
  for (;; --p) {
    rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    if (rank == 0) rank = 1;
    if (n - rank >= min_beyond || p == 0) break;
  }
  t.percentile = p;
  t.value = v[rank - 1];
  t.beyond = n - rank;
  return t;
}

}  // namespace perfbench
