#include "core/equal_opportunism.h"

#include <gtest/gtest.h>

#include "datasets/workloads.h"
#include "graph/dynamic_graph.h"
#include "partition/hub_tally.h"

namespace loom {
namespace core {
namespace {

// Shared fixture: Fig. 1 trie (motifs a-b @1.0, b-c @0.7, a-b-c @0.7) plus a
// small adjacency for the neighbour-bid term.
class EqualOpportunismTest : public ::testing::Test {
 protected:
  EqualOpportunismTest()
      : values_(4, 251, 0xC0FFEE), calc_(&values_), trie_(&calc_, 0.4) {
    auto workload = datasets::Figure1Workload(&registry_);
    for (const auto& q : workload.queries()) {
      trie_.AddQuery(q.pattern, q.frequency);
    }
    // Locate motif node ids by edge count/support for use in matches.
    for (uint32_t id = 1; id < trie_.NumNodes(); ++id) {
      if (!trie_.IsMotif(id)) continue;
      if (trie_.node(id).num_edges == 2) {
        abc_node_ = id;
      } else if (trie_.NormalizedSupport(id) > 0.99) {
        ab_node_ = id;
      } else {
        bc_node_ = id;
      }
    }
    for (graph::VertexId v = 0; v < 32; ++v) seen_.TouchVertex(v, 0);
  }

  motif::MatchHandle MakeMatch(std::vector<graph::EdgeId> edges,
                               std::vector<graph::VertexId> vertices,
                               uint32_t node) {
    motif::MatchHandle h = ml_.Acquire();
    motif::Match& m = ml_.match(h);
    m.edges = std::move(edges);
    m.vertices = std::move(vertices);
    m.degrees.assign(m.vertices.size(), 1);
    m.node_id = node;
    EXPECT_TRUE(ml_.Commit(h));
    return h;
  }

  graph::LabelRegistry registry_;
  signature::LabelValues values_;
  signature::SignatureCalculator calc_;
  tpstry::Tpstry trie_;
  graph::DynamicGraph seen_;
  motif::MatchList ml_;
  uint32_t ab_node_ = 0, bc_node_ = 0, abc_node_ = 0;
};

TEST_F(EqualOpportunismTest, RationBoundsAndMonotonicity) {
  EqualOpportunism eo(&trie_, &seen_, {});
  partition::Partitioning p(3, 300);
  // Equal (empty) partitions: full ration everywhere.
  for (graph::PartitionId si = 0; si < 3; ++si) {
    EXPECT_DOUBLE_EQ(eo.Ration(si, p), 1.0);
  }
  // Make partition 0 larger: its ration must drop below the smaller ones'.
  for (graph::VertexId v = 0; v < 12; ++v) p.Assign(v, 0);
  for (graph::VertexId v = 12; v < 23; ++v) p.Assign(v, 1);
  for (graph::VertexId v = 23; v < 33; ++v) p.Assign(v, 2);
  EXPECT_LE(eo.Ration(0, p), eo.Ration(2, p));
  EXPECT_DOUBLE_EQ(eo.Ration(2, p), 1.0);  // smallest partition
  for (graph::PartitionId si = 0; si < 3; ++si) {
    EXPECT_GE(eo.Ration(si, p), 0.0);
    EXPECT_LE(eo.Ration(si, p), 1.0);
  }
}

TEST_F(EqualOpportunismTest, RationZeroBeyondBalanceBound) {
  EqualOpportunismConfig cfg;
  cfg.balance_b = 1.1;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 1000);
  // 40 vs 20 assigned: partition 0 is at 1.33x the average (30) > 1.1x.
  for (graph::VertexId v = 0; v < 40; ++v) p.Assign(v, 0);
  for (graph::VertexId v = 40; v < 60; ++v) p.Assign(v, 1);
  EXPECT_DOUBLE_EQ(eo.Ration(0, p), 0.0);
  EXPECT_GT(eo.Ration(1, p), 0.0);
}

TEST_F(EqualOpportunismTest, DisableRationing) {
  EqualOpportunismConfig cfg;
  cfg.disable_rationing = true;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 100);
  for (graph::VertexId v = 0; v < 50; ++v) p.Assign(v, 0);
  EXPECT_DOUBLE_EQ(eo.Ration(0, p), 1.0);
}

TEST_F(EqualOpportunismTest, DecideFollowsVertexOverlap) {
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.0;  // isolate Eq. 1's vertex overlap
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 100);
  p.Assign(10, 1);  // vertex 10 lives in partition 1
  p.Assign(20, 0);  // balance the sizes so rations are equal
  auto m = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{m};
  auto decision = eo.Decide(ml_, me, p, /*fallback=*/0);
  EXPECT_EQ(decision.partition, 1u);
  ASSERT_EQ(decision.take, 1u);
  EXPECT_EQ(me[0], m);
}

TEST_F(EqualOpportunismTest, DecideFallsBackWhenNoOverlap) {
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.0;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(4, 100);
  auto m = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{m};
  auto decision = eo.Decide(ml_, me, p, /*fallback=*/3);
  EXPECT_EQ(decision.partition, 3u);
  // Fallback takes the whole cluster.
  EXPECT_EQ(decision.take, 1u);
}

TEST_F(EqualOpportunismTest, NeighborBidAttractsClusters) {
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.5;
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 100);
  // Match vertices are unassigned, but vertex 10's neighbour 5 is in
  // partition 1 (and sizes are balanced).
  seen_.AddEdge(10, 5);
  p.Assign(5, 1);
  p.Assign(6, 0);
  auto m = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{m};
  auto decision = eo.Decide(ml_, me, p, /*fallback=*/0);
  EXPECT_EQ(decision.partition, 1u);
}

TEST_F(EqualOpportunismTest, SupportOrderingPrioritisesHighSupport) {
  EqualOpportunism eo(&trie_, &seen_, {});
  partition::Partitioning p(2, 100);
  p.Assign(10, 1);
  p.Assign(20, 0);
  // Two matches sharing edge 0: the a-b single (support 1.0) must sort ahead
  // of the a-b-c pair (support 0.7).
  auto low = MakeMatch({0, 1}, {10, 11, 12}, abc_node_);
  auto high = MakeMatch({0}, {10, 11}, ab_node_);
  std::vector<motif::MatchHandle> me{low, high};
  auto decision = eo.Decide(ml_, me, p, 0);
  ASSERT_GE(decision.take, 1u);
  EXPECT_EQ(me[0], high);
}

TEST_F(EqualOpportunismTest, EmptyClusterUsesFallback) {
  EqualOpportunism eo(&trie_, &seen_, {});
  partition::Partitioning p(2, 100);
  std::vector<motif::MatchHandle> me;
  auto decision = eo.Decide(ml_, me, p, 1);
  EXPECT_EQ(decision.partition, 1u);
  EXPECT_EQ(decision.take, 0u);
}

TEST_F(EqualOpportunismTest, HubRowsDecideLikeAdjacencyTallies) {
  // Vertex 10 reaches the hub threshold and gets a materialised row; vertex
  // 11 stays below it. Neighbours are placed both before the crossing
  // (counted by the materialising tally) and after it (counted by
  // OnAssign), so the row is built by both paths.
  constexpr uint32_t kK = 3;
  partition::Partitioning p(kK, 300);
  partition::HubTallyCache hubs(kK, /*degree_threshold=*/4);
  auto place = [&](graph::VertexId v, graph::PartitionId si) {
    hubs.OnAssign(v, p.Assign(v, si), seen_);
  };
  auto connect = [&](graph::VertexId u, graph::VertexId v) {
    seen_.AddEdge(u, v);
    hubs.OnEdgeVisible(u, v, seen_, p);
  };
  place(20, 2);
  place(21, 0);
  for (graph::VertexId w = 20; w < 30; ++w) connect(10, w);
  connect(11, 30);
  connect(11, 31);
  place(22, 2);
  place(23, 2);
  place(24, 1);
  place(30, 1);
  place(31, 0);
  place(50, 0);  // unconnected fillers: equal sizes, equal rations
  place(51, 1);
  ASSERT_NE(hubs.Counts(10), nullptr);
  ASSERT_EQ(hubs.Counts(11), nullptr);

  // A cluster of four matches sharing edge 0, every one containing the hub.
  const std::vector<motif::MatchHandle> cluster = {
      MakeMatch({0, 1}, {10, 11, 12}, abc_node_),
      MakeMatch({0}, {10, 11}, ab_node_),
      MakeMatch({0, 2}, {10, 11, 13}, abc_node_),
      MakeMatch({0}, {10, 11}, bc_node_),
  };
  EqualOpportunismConfig cfg;
  cfg.neighbor_bid_weight = 0.5;
  EqualOpportunism with_rows(&trie_, &seen_, cfg, &hubs);
  EqualOpportunism without_rows(&trie_, &seen_, cfg);
  std::vector<motif::MatchHandle> me_rows = cluster;
  std::vector<motif::MatchHandle> me_tally = cluster;
  const AllocationDecision a = with_rows.DecideBids(ml_, me_rows, p);
  const AllocationDecision b = without_rows.DecideBids(ml_, me_tally, p);
  // The hub's neighbours lean to partition 2: the neighbour term decides.
  EXPECT_EQ(b.partition, 2u);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_EQ(a.take, b.take);
  EXPECT_EQ(me_rows, me_tally);
}

TEST_F(EqualOpportunismTest, PaperWorkedExampleRationHalfish) {
  // Sec. 4's example: S1 33.3% larger than S2 gives l(S1) = 1/2 under the
  // paper's own arithmetic (1/1.33 * 2/3 = 0.5 with the reciprocal reading).
  EqualOpportunismConfig cfg;
  cfg.balance_b = 2.0;  // the example ignores the b cutoff
  EqualOpportunism eo(&trie_, &seen_, cfg);
  partition::Partitioning p(2, 1000);
  for (graph::VertexId v = 0; v < 40; ++v) p.Assign(v, 0);
  for (graph::VertexId v = 40; v < 70; ++v) p.Assign(v, 1);
  EXPECT_NEAR(eo.Ration(0, p), (30.0 / 40.0) * (2.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(eo.Ration(1, p), 1.0);
}

}  // namespace
}  // namespace core
}  // namespace loom
