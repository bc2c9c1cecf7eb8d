#include "core/loom_partitioner.h"

#include <gtest/gtest.h>

#include "datasets/dataset_registry.h"
#include "datasets/workloads.h"
#include "partition/partition_metrics.h"
#include "stream/stream_order.h"

namespace loom {
namespace core {
namespace {

LoomOptions OptionsFor(const datasets::Dataset& ds, uint32_t k,
                       size_t window = 512) {
  LoomOptions opts;
  opts.base.k = k;
  opts.base.expected_vertices = ds.NumVertices();
  opts.base.expected_edges = ds.NumEdges();
  opts.window_size = window;
  return opts;
}

TEST(LoomPartitionerTest, FullyAssignsEveryVertex) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(OptionsFor(ds, 8), ds.workload, ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  EXPECT_TRUE(partition::FullyAssigned(ds.graph, loom.partitioning()));
  EXPECT_EQ(loom.WindowSize(), 0u);  // window drained
}

TEST(LoomPartitionerTest, StatsAreConsistent) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(OptionsFor(ds, 8), ds.workload, ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  const LoomStats& s = loom.stats();
  EXPECT_EQ(s.edges_ingested, es.size());
  // Every edge either bypassed or was admitted to the window.
  EXPECT_EQ(s.edges_bypassed + loom.matcher_stats().edges_admitted,
            s.edges_ingested);
  // Every admitted edge was eventually assigned through a cluster (or solo).
  EXPECT_EQ(s.cluster_edges_assigned, loom.matcher_stats().edges_admitted);
  EXPECT_GT(s.clusters_allocated, 0u);
}

TEST(LoomPartitionerTest, RespectsImbalanceBound) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(OptionsFor(ds, 8), ds.workload, ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  EXPECT_LT(partition::Imbalance(loom.partitioning()), 0.12);
}

TEST(LoomPartitionerTest, FinalizeIsIdempotent) {
  auto ds = datasets::MakeFigure1Dataset();
  LoomPartitioner loom(OptionsFor(ds, 2, 4), ds.workload, ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  size_t assigned = loom.partitioning().NumAssigned();
  loom.Finalize();
  EXPECT_EQ(loom.partitioning().NumAssigned(), assigned);
}

TEST(LoomPartitionerTest, TrieBuiltFromWorkload) {
  auto ds = datasets::MakeFigure1Dataset();
  LoomPartitioner loom(OptionsFor(ds, 2), ds.workload, ds.registry.size());
  EXPECT_EQ(loom.trie().NumNodes(), 11u);
  EXPECT_EQ(loom.trie().MotifIds().size(), 3u);
}

TEST(LoomPartitionerTest, NonMotifEdgesBypassWindow) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  LoomPartitioner loom(OptionsFor(ds, 4), ds.workload, ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  // ProvGen's Activity-Agent edges (support 30% < 40%) must bypass.
  EXPECT_GT(loom.stats().edges_bypassed, 0u);
  EXPECT_LT(loom.stats().edges_bypassed, es.size());
}

TEST(LoomPartitionerTest, TinyWindowStillCorrect) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  LoomPartitioner loom(OptionsFor(ds, 4, /*window=*/1), ds.workload,
                       ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();
  EXPECT_TRUE(partition::FullyAssigned(ds.graph, loom.partitioning()));
}

TEST(LoomPartitionerTest, WindowNeverExceedsCapacityBetweenIngests) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  const size_t t = 64;
  LoomPartitioner loom(OptionsFor(ds, 4, t), ds.workload, ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) {
    loom.Ingest(e);
    EXPECT_LE(loom.WindowSize(), t);
  }
}

TEST(LoomPartitionerTest, DeterministicAcrossRuns) {
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.03);
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  LoomPartitioner a(OptionsFor(ds, 4), ds.workload, ds.registry.size());
  LoomPartitioner b(OptionsFor(ds, 4), ds.workload, ds.registry.size());
  for (const auto& e : es) {
    a.Ingest(e);
    b.Ingest(e);
  }
  a.Finalize();
  b.Finalize();
  for (graph::VertexId v = 0; v < ds.NumVertices(); ++v) {
    ASSERT_EQ(a.partitioning().PartitionOf(v), b.partitioning().PartitionOf(v));
  }
}

TEST(LoomPartitionerTest, MotifClustersColocated) {
  // The provgen E-A-E triples that Loom matches should be co-located far
  // more often than chance (1/k).
  auto ds = datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.1);
  LoomPartitioner loom(OptionsFor(ds, 8, 2000), ds.workload,
                       ds.registry.size());
  auto es = stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  for (const auto& e : es) loom.Ingest(e);
  loom.Finalize();

  const graph::LabelId ent = ds.registry.Find("Entity");
  const graph::LabelId act = ds.registry.Find("Activity");
  size_t triples = 0, colocated = 0;
  const auto& part = loom.partitioning();
  for (graph::VertexId v = 0; v < ds.NumVertices(); ++v) {
    if (ds.graph.label(v) != act) continue;
    std::vector<graph::VertexId> ents;
    for (graph::VertexId w : ds.graph.Neighbors(v)) {
      if (ds.graph.label(w) == ent) ents.push_back(w);
    }
    if (ents.size() < 2) continue;
    ++triples;
    bool all = true;
    for (graph::VertexId w : ents) {
      if (part.PartitionOf(w) != part.PartitionOf(v)) all = false;
    }
    if (all) ++colocated;
  }
  ASSERT_GT(triples, 100u);
  EXPECT_GT(static_cast<double>(colocated) / static_cast<double>(triples), 0.4)
      << "motif co-location should far exceed the 1/k = 12.5% chance level";
}

// A hub-heavy stream over the Fig. 1 workload (motifs a-b, b-c, a-b-c):
// b-labelled vertex 0 gains an a- or c-labelled spoke on three of every
// four edges, and the fourth ties the newest a-spoke either to one of eight
// secondary b vertices or, again, to the hub (a parallel edge, so both
// endpoints share live matches). With a 256-edge window the hub holds far
// more than 2 x 64 live matches, so the matcher's per-endpoint cap
// truncates both the extension candidates (sometimes with the hub as u,
// sometimes as v) and the join lists. The expected values were recorded
// with the earlier collect-everything-then-truncate matcher; they pin that
// stopping collection at the cap changed the work done, not the matches
// found or the placements made.
struct HubRun {
  uint64_t assignment_hash = 0;
  engine::StatCounters counters;
};

HubRun RunHubStream(size_t max_matches_per_vertex) {
  graph::LabelRegistry registry;
  const query::Workload workload = datasets::Figure1Workload(&registry);
  const graph::LabelId a = registry.Find("a");
  const graph::LabelId b = registry.Find("b");
  const graph::LabelId c = registry.Find("c");
  constexpr graph::VertexId kHub = 0;
  constexpr graph::VertexId kSecondaryHubs = 8;  // vertices 1..8
  std::vector<stream::StreamEdge> edges;
  graph::VertexId next_vertex = kSecondaryHubs + 1;
  graph::VertexId newest_a = graph::kInvalidVertex;
  auto add = [&](graph::VertexId u, graph::LabelId lu, graph::VertexId v,
                 graph::LabelId lv) {
    stream::StreamEdge e;
    e.id = static_cast<graph::EdgeId>(edges.size());
    e.u = u;
    e.v = v;
    e.label_u = lu;
    e.label_v = lv;
    edges.push_back(e);
  };
  for (uint32_t i = 0; i < 900; ++i) {
    switch (i % 4) {
      case 0:
      case 1:
        newest_a = next_vertex++;
        if (i % 8 < 4) {
          add(kHub, b, newest_a, a);
        } else {
          add(newest_a, a, kHub, b);
        }
        break;
      case 2:
        add(kHub, b, next_vertex++, c);
        break;
      default:
        if (i % 8 == 7) {
          add(newest_a, a, kHub, b);  // parallel to the spoke's first edge
        } else {
          add(newest_a, a, 1 + (i / 8) % kSecondaryHubs, b);
        }
        break;
    }
  }

  LoomOptions opts;
  opts.base.k = 4;
  opts.base.expected_vertices = next_vertex;
  opts.base.expected_edges = edges.size();
  opts.window_size = 256;
  opts.matcher.max_matches_per_vertex = max_matches_per_vertex;
  LoomPartitioner loom(opts, workload, registry.size());
  for (const stream::StreamEdge& e : edges) loom.Ingest(e);
  loom.Finalize();

  HubRun run;
  run.assignment_hash =
      partition::AssignmentHash(loom.partitioning(), next_vertex);
  engine::FinalStatsEvent stats;
  loom.FillFinalStats(&stats);
  run.counters = stats.counters;
  return run;
}

TEST(LoomPartitionerTest, MatcherCapTruncationAtHubIsPinned) {
  const engine::StatCounters tight = {
      {"match_allocs_fresh", 512},
      {"match_allocs_reused", 1750},
      {"matcher_edges_admitted", 900},
      {"matcher_single_edge_matches", 900},
      {"matcher_extension_matches", 912},
      {"matcher_join_matches", 0},
      {"matcher_join_attempts", 2111},
  };
  const HubRun at_two = RunHubStream(2);
  EXPECT_EQ(at_two.assignment_hash, 0xb442474eac6d527dull);
  EXPECT_EQ(at_two.counters, tight);

  const engine::StatCounters standard = {
      {"match_allocs_fresh", 2671},
      {"match_allocs_reused", 32410},
      {"matcher_edges_admitted", 900},
      {"matcher_single_edge_matches", 900},
      {"matcher_extension_matches", 22387},
      {"matcher_join_matches", 0},
      {"matcher_join_attempts", 46010},
  };
  const HubRun at_default =
      RunHubStream(motif::MatcherConfig{}.max_matches_per_vertex);
  EXPECT_EQ(at_default.assignment_hash, 0xdf80f76ee4dbd67dull);
  EXPECT_EQ(at_default.counters, standard);
}

}  // namespace
}  // namespace core
}  // namespace loom
