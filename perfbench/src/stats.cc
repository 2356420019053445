#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q in a sample of n (n >= 1).
std::uint64_t nearest_rank(double q, std::uint64_t n) {
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

/// The rank-th smallest value (1-based) of `values`, reordering them.
double select_rank(std::vector<double>& values, std::uint64_t rank) {
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return select_rank(values, nearest_rank(q, values.size()));
}

void RefusalAwareSample::merge(const RefusalAwareSample& other) {
  for (const auto& [value, n] : other.finite_) finite_[value] += n;
  finite_count_ += other.finite_count_;
  refused_ += other.refused_;
}

double RefusalAwareSample::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const std::uint64_t rank = nearest_rank(q, n);
  if (rank > finite_count_) return kInf;
  std::uint64_t below = 0;
  for (const auto& [value, k] : finite_) {
    below += k;
    if (below >= rank) return static_cast<double>(value);
  }
  return kInf;
}

std::uint64_t RefusalAwareSample::beyond(double q) const {
  const double p = percentile(q);
  if (p == kInf) return 0;
  std::uint64_t n = refused_;
  for (const auto& [value, k] : finite_) {
    if (static_cast<double>(value) > p) n += k;
  }
  return n;
}

}  // namespace perfbench
