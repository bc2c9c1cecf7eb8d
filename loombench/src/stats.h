// Exact order statistics over raw samples.
//
// Every percentile the benchmark reports is computed here, by nearest rank
// over the recorded samples — never from a bucketed histogram, whose
// power-of-two edges make neighbouring latencies indistinguishable.
#ifndef LOOMBENCH_STATS_H_
#define LOOMBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace loombench {

/// Nearest-rank percentile: the smallest sample x such that at least a share
/// `q` of all samples is <= x, i.e. sorted[ceil(q * n) - 1] (1-based rank
/// ceil(q * n), clamped to [1, n]). `q` is in (0, 1]. Sorts `samples`.
/// Returns 0 for an empty sample.
double NearestRank(std::vector<double>* samples, double q);

/// Element-wise minimum of equally long sample rows: entry i is the smallest
/// of every row's entry i. Empty if `rows` is empty or the rows differ in
/// length.
std::vector<double> ElementwiseMin(
    const std::vector<std::vector<double>>& rows);

/// How a timing is reported: its median, the highest of p90/p99/p99.9/p99.99
/// that still has at least 10 samples above its rank (`tail_q` = 0.5 and
/// `tail` = median when even p90 has fewer), and the sample count.
struct Summary {
  double median = 0.0;
  double tail_q = 0.5;
  double tail = 0.0;
  size_t n = 0;
};

/// Samples strictly above the nearest-rank position of `q` among `n`.
size_t SamplesBeyond(size_t n, double q);

Summary Summarize(std::vector<double> samples);

/// A latency sample set reduced to what is reported: the summary plus the
/// nearest-rank p50 and p99.
struct Latency {
  Summary summary;
  double p50 = 0.0;
  double p99 = 0.0;
};

Latency Measure(std::vector<double> samples);

}  // namespace loombench

#endif  // LOOMBENCH_STATS_H_
