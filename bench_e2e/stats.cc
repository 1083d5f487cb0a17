#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace calibre::bench {

double quantile_cut(const std::vector<double>& sorted, int i, int n) {
  CALIBRE_CHECK_MSG(!sorted.empty(), "quantile of an empty sample");
  CALIBRE_CHECK(n >= 2 && i >= 1 && i < n);
  const long long len = static_cast<long long>(sorted.size());
  if (len == 1) return sorted[0];
  // Integer positions keep the interpolation weights exact, as in Python.
  const long long m = len + 1;
  const long long j = std::clamp<long long>(i * m / n, 1, len - 1);
  const long long delta = i * m - j * n;
  return (sorted[static_cast<std::size_t>(j - 1)] *
              static_cast<double>(n - delta) +
          sorted[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
         static_cast<double>(n);
}

double percentile(const std::vector<double>& sorted, int p) {
  return quantile_cut(sorted, p, 100);
}

int tail_percentile(std::size_t n) {
  if (n >= 1000) return 99;
  if (n >= 200) return 95;
  return 90;
}

double Summary::relative_spread() const {
  const double iqr = q3 - q1;
  if (median == 0.0) return iqr == 0.0 ? 0.0 : INFINITY;
  return iqr / std::fabs(median);
}

Summary summarize(std::vector<double> samples) {
  CALIBRE_CHECK_MSG(!samples.empty(), "summary of an empty sample");
  std::sort(samples.begin(), samples.end());
  Summary summary;
  summary.median = quantile_cut(samples, 1, 2);
  summary.q1 = quantile_cut(samples, 1, 4);
  summary.q3 = quantile_cut(samples, 3, 4);
  summary.n = samples.size();
  return summary;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter:
      return "better";
    case Verdict::kSame:
      return "same";
    case Verdict::kWorse:
      return "worse";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Verdict compare_samples(const std::vector<double>& baseline,
                        const std::vector<double>& current, Better better,
                        double bound) {
  const Summary base = summarize(baseline);
  const Summary next = summarize(current);
  const auto [base_min, base_max] =
      std::minmax_element(baseline.begin(), baseline.end());
  const auto [next_min, next_max] =
      std::minmax_element(current.begin(), current.end());
  const bool all_better = better == Better::kLower ? *next_max < *base_min
                                                   : *next_min > *base_max;
  if (all_better) return Verdict::kBetter;

  // Signed relative change, positive when the metric got worse.
  double worsening = 0.0;
  if (base.median != 0.0) {
    worsening = (next.median - base.median) / std::fabs(base.median);
  } else if (next.median != 0.0) {
    worsening = next.median > 0.0 ? INFINITY : -INFINITY;
  }
  if (better == Better::kHigher) worsening = -worsening;

  if (std::max(base.relative_spread(), next.relative_spread()) > bound) {
    return Verdict::kUnresolved;
  }
  if (worsening > bound) return Verdict::kWorse;
  if (worsening < -bound) return Verdict::kBetter;
  return Verdict::kSame;
}

}  // namespace calibre::bench
