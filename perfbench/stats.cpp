#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "common/error.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  HIPA_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  HIPA_CHECK(v.size() >= 2, "quartiles need two samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

std::optional<double> percentile(std::span<const double> sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n / 100.0 - 1e-9));
  if (rank < 1 || sorted.size() - rank < 10) return std::nullopt;
  return sorted[rank - 1];
}

}  // namespace perfbench
