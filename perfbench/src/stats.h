/// \file stats.h
/// \brief Order statistics for the benchmark's reported figures.
///
/// Latency samples carry refusals: a request that was rejected, shed, or
/// accepted but never enacted has no latency, and it must still count as
/// missing every limit.  RefusalAwareSample ranks those above every finite
/// value, so a percentile over it is honest about them.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of an unsorted sample: the ceil(q * n)-th
/// smallest value, rank clamped to [1, n].  0 on an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median (nearest-rank p50).
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Integer latencies (slots), kept as value -> count, plus a count of
/// refused samples that sit beyond any limit.  Percentiles rank over
/// finite + refused.
class RefusalAwareSample {
 public:
  void add(std::int64_t value) {
    ++finite_[value];
    ++finite_count_;
  }
  void add_refused(std::uint64_t n = 1) { refused_ += n; }
  void merge(const RefusalAwareSample& other);

  [[nodiscard]] std::uint64_t count() const noexcept {
    return finite_count_ + refused_;
  }
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }

  /// Nearest-rank percentile over all samples; +inf when the rank lands
  /// among the refused ones, 0 when empty.
  [[nodiscard]] double percentile(double q) const;

  /// Samples strictly above percentile(q): the guide's "at least ten
  /// beyond it" check for whether a tail percentile is meaningful.
  [[nodiscard]] std::uint64_t beyond(double q) const;

 private:
  std::map<std::int64_t, std::uint64_t> finite_;
  std::uint64_t finite_count_{0};
  std::uint64_t refused_{0};
};

}  // namespace perfbench
