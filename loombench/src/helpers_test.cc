// Tests of the benchmark's helpers: the nearest-rank percentile rule, the
// element-wise minimum, the tail-percentile choice and the span self-time
// computation.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace loombench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRank, PicksTheCeilRankSample) {
  std::vector<double> v = OneTo(100);
  EXPECT_EQ(NearestRank(&v, 0.5), 50);
  EXPECT_EQ(NearestRank(&v, 0.99), 99);  // not 100: 0.99*100 is exact
  EXPECT_EQ(NearestRank(&v, 0.991), 100);
  EXPECT_EQ(NearestRank(&v, 1.0), 100);
  std::vector<double> odd = {3, 1, 2};
  EXPECT_EQ(NearestRank(&odd, 0.5), 2);
  std::vector<double> one = {7};
  EXPECT_EQ(NearestRank(&one, 0.01), 7);
  std::vector<double> none;
  EXPECT_EQ(NearestRank(&none, 0.5), 0);
}

TEST(NearestRank, NeverInterpolates) {
  // 191 ns and 383 ns stay distinct values, whatever lies between.
  std::vector<double> v = {191, 383};
  EXPECT_EQ(NearestRank(&v, 0.5), 191);
  EXPECT_EQ(NearestRank(&v, 0.51), 383);
}

TEST(ElementwiseMin, TakesEachPositionsSmallestAcrossRows) {
  // A stall in one row (position 1 of the second row) does not reach the
  // result; each entry is one of the recorded samples.
  EXPECT_EQ(ElementwiseMin({{10, 50, 7}, {12, 900, 7}, {11, 52, 9}}),
            (std::vector<double>{10, 50, 7}));
  EXPECT_EQ(ElementwiseMin({{4, 1}}), (std::vector<double>{4, 1}));
  EXPECT_TRUE(ElementwiseMin({}).empty());
  EXPECT_TRUE(ElementwiseMin({{1, 2}, {1}}).empty());
}

TEST(Summarize, ReportsTheHighestPercentileWithTenSamplesBeyond) {
  Summary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.median, 500);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);  // p99.9 has only 1 sample beyond
  EXPECT_EQ(s.tail, 990);

  s = Summarize(OneTo(1010));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);  // p99.9: rank 1009, 1 beyond

  s = Summarize(OneTo(10000));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.999);  // rank 9990, exactly 10 beyond
  EXPECT_EQ(s.tail, 9990);

  s = Summarize(OneTo(50));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.5);  // p90 would leave 5 beyond
  EXPECT_EQ(s.tail, s.median);

  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.9), 0u);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"drive", 0, 100, -1},
      {"engine.ingest", 10, 40, 0},
      {"engine.ingest", 30, 60, 0},  // overlaps its sibling: union 10..60
      {"io.sink", 15, 20, 1},
      {"io.read", 90, 120, 0},  // clipped to the parent's end
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);

  const auto by_name = SelfTimeByName(spans);
  EXPECT_EQ(by_name.at("engine.ingest"), 55);
  EXPECT_EQ(by_name.at("drive"), 40);
}

TEST(SelfTime, SelfTimesOfAFullyNestedTreeSumToTheRoot) {
  std::vector<Span> spans = {
      {"root", 0, 1000, -1}, {"a", 0, 400, 0},   {"b", 400, 900, 0},
      {"a1", 50, 150, 1},    {"a2", 150, 400, 1}, {"b1", 500, 600, 2},
  };
  int64_t total = 0;
  for (int64_t s : SelfTimes(spans)) total += s;
  EXPECT_EQ(total, 1000);
}

TEST(Tracer, RecordsNothingWhenDisabled) {
  Tracer tr(false);
  EXPECT_EQ(tr.Begin("x", -1), -1);
  tr.End(-1);
  EXPECT_EQ(tr.Add("y", 0, 1, -1), -1);
  EXPECT_TRUE(tr.spans().empty());
  tr.set_enabled(true);
  const int s = tr.Begin("z", -1);
  tr.End(s);
  ASSERT_EQ(tr.spans().size(), 1u);
  EXPECT_GE(tr.spans()[0].end_ns, tr.spans()[0].start_ns);
}

}  // namespace
}  // namespace loombench
