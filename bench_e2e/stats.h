// Order statistics and the regression verdict used by bench_e2e.
//
// Quartiles follow Python's statistics.quantiles(data, n=4) (its default
// 'exclusive' method) exactly, so the medians and spreads bench_e2e prints
// match what a script computing them from the same samples would get.
#pragma once

#include <cstddef>
#include <vector>

namespace calibre::bench {

// Cut point `i` of `n` (1 <= i < n) over ascending `sorted`, as
// statistics.quantiles(sorted, n=n)[i - 1] computes it: linear
// interpolation at position i * (len + 1) / n, extrapolating from the two
// end samples when that position falls outside [1, len]. A single sample
// is every cut point. Requires a non-empty input.
double quantile_cut(const std::vector<double>& sorted, int i, int n);

// The p-th percentile (1 <= p <= 99) under the same rule.
double percentile(const std::vector<double>& sorted, int p);

// The highest of p99 / p95 / p90 that has at least ten samples beyond it
// (n >= 1000, n >= 200, otherwise p90 as the floor).
int tail_percentile(std::size_t n);

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;

  // Interquartile distance as a share of the median's magnitude (0 when
  // the median is 0 and the quartiles agree).
  double relative_spread() const;
};

// Median and quartiles of `samples` (any order; must be non-empty).
Summary summarize(std::vector<double> samples);

enum class Better { kLower, kHigher };
enum class Verdict { kBetter, kSame, kWorse, kUnresolved };

const char* verdict_name(Verdict verdict);

// Compares a new sample set against a baseline for one metric. `bound` is
// the share of the baseline median by which the metric may worsen.
//  * better      — every new sample beats every baseline sample, or the
//                  median improved by more than the bound;
//  * unresolved  — otherwise, when either side's interquartile spread is
//                  wider than the bound (the noise could hide a change);
//  * worse       — the median worsened by more than the bound;
//  * same        — the medians agree within the bound.
Verdict compare_samples(const std::vector<double>& baseline,
                        const std::vector<double>& current, Better better,
                        double bound);

}  // namespace calibre::bench
