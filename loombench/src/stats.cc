#include "stats.h"

#include <algorithm>
#include <cmath>

namespace loombench {

namespace {

size_t Rank(size_t n, double q) {
  // ceil(q * n) in [1, n]; the epsilon keeps 0.99 * 100 from rounding up
  // to 100 through binary representation error.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

double NearestRank(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[Rank(samples->size(), q) - 1];
}

std::vector<double> ElementwiseMin(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  std::vector<double> out = rows.front();
  for (const std::vector<double>& r : rows) {
    if (r.size() != out.size()) return {};
    for (size_t i = 0; i < r.size(); ++i) out[i] = std::min(out[i], r[i]);
  }
  return out;
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.median = NearestRank(&samples, 0.5);
  s.tail = s.median;
  for (double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (SamplesBeyond(s.n, q) < 10) break;
    s.tail_q = q;
    s.tail = NearestRank(&samples, q);
  }
  return s;
}

Latency Measure(std::vector<double> samples) {
  Latency l;
  l.summary = Summarize(samples);
  l.p50 = NearestRank(&samples, 0.5);
  l.p99 = NearestRank(&samples, 0.99);
  return l;
}

}  // namespace loombench
