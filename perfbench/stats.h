// Arithmetic the benchmark reports with: the median, the tail-percentile
// pick, and the metric-name rules the result line must obey. Kept apart
// from perfbench.cc so tests/selftest.cc can pin it.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The tail of a latency sample: the highest whole percentile q whose
// nearest-rank value (rank ceil(q/100 * n), 1-based) still has at least
// `min_beyond` samples ranked after it. Only percentiles from the median
// up are considered; fewer than 2 * min_beyond samples give no tail.
struct TailPick {
  int percentile = 0;
  double value = 0;
  std::int64_t beyond = 0;   // samples ranked after the picked one
  std::int64_t samples = 0;
};

inline std::optional<TailPick> PickTail(std::vector<double> values,
                                        std::int64_t min_beyond = 10) {
  const auto n = static_cast<std::int64_t>(values.size());
  std::sort(values.begin(), values.end());
  for (int q = 99; q >= 50; --q) {
    // ceil(q * n / 100) in integers.
    const std::int64_t rank = (q * n + 99) / 100;
    if (rank < 1 || n - rank < min_beyond) continue;
    return TailPick{q, values[static_cast<std::size_t>(rank - 1)], n - rank,
                    n};
  }
  return std::nullopt;
}

// Result-line limits: names are [A-Za-z0-9_.-]+, start with a letter or a
// digit, and have at most 64 characters.
inline constexpr std::size_t kMaxEndToEndMetrics = 16;
inline constexpr std::size_t kMaxPerLayerMetrics = 128;
inline constexpr std::size_t kMaxNameLength = 64;

inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameLength) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// Empty when the set is valid; otherwise the first problem found.
inline std::string CheckMetricSet(const std::vector<std::string>& names,
                                  std::size_t limit) {
  if (names.empty()) return "no metrics";
  if (names.size() > limit) {
    return std::to_string(names.size()) + " metrics exceed the limit of " +
           std::to_string(limit);
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (!ValidMetricName(sorted[i])) {
      return "invalid metric name '" + sorted[i] + "'";
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return "duplicate metric name '" + sorted[i] + "'";
    }
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
