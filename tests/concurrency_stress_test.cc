// Lifecycle and concurrency stress for the partitioner backends.
//
// The contract suite (partitioners_test) proves that batch cuts never change
// a seeded lifecycle. This suite covers what lies around it: a workload
// drift in the middle of a Loom stream, backend churn (construct, feed a
// few edges, destroy with or without Finalize), and independent backends
// running on concurrent threads over one shared, read-only dataset. The
// last case is the race target here: a backend that kept hidden shared
// mutable state (a static cache, a lazily filled global table) would give
// ThreadSanitizer a report, or a thread a different answer from the
// sequential run. The CI sanitizer matrix runs this suite under TSan and
// ASan/UBSan.

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/loom_partitioner.h"
#include "datasets/dataset_registry.h"
#include "engine/engine.h"
#include "partition/partition_metrics.h"
#include "stream/stream_order.h"
#include "test_util.h"

namespace loom {
namespace core {
namespace {

/// Ingests [begin, end) of `all` into `p`, per edge or as one batch.
void Feed(partition::Partitioner* p, const std::vector<stream::StreamEdge>& all,
          size_t begin, size_t end, bool per_edge) {
  if (per_edge) {
    for (size_t i = begin; i < end; ++i) p->Ingest(all[i]);
  } else {
    p->IngestBatch(
        std::span<const stream::StreamEdge>(all.data() + begin, end - begin));
  }
}

TEST(LoomStressTest, WorkloadDriftMidStreamIsBatchCutInvariant) {
  // UpdateWorkload between two halves of the stream must shift Loom the
  // same way whether the halves arrive edge by edge or as single batches.
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kProvGen, 0.05);
  const stream::EdgeStream es =
      stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  const std::vector<stream::StreamEdge> all(es.begin(), es.end());
  const engine::EngineOptions options = test_util::OptionsFor(ds);

  // Drifted workload: the same queries reweighted hard toward the tail.
  query::Workload drifted;
  {
    const std::vector<query::Query>& qs = ds.workload.queries();
    for (size_t i = 0; i < qs.size(); ++i) {
      drifted.Add(qs[i].name, qs[i].pattern,
                  1.0 + static_cast<double>(i * i));
    }
  }

  auto run = [&](bool per_edge) {
    auto p = test_util::MakeBackend("loom", options, ds);
    if (p == nullptr) return test_util::Quality{};
    auto* core = dynamic_cast<LoomPartitioner*>(p.get());
    EXPECT_NE(core, nullptr);
    if (core == nullptr) return test_util::Quality{};
    const size_t half = all.size() / 2;
    Feed(p.get(), all, 0, half, per_edge);
    core->UpdateWorkload(drifted, 0.3);
    Feed(p.get(), all, half, all.size(), per_edge);
    p->Finalize();
    EXPECT_TRUE(partition::FullyAssigned(ds.graph, p->partitioning()))
        << "per_edge=" << per_edge;
    return test_util::QualityOf(*p, ds);
  };
  EXPECT_EQ(run(/*per_edge=*/true), run(/*per_edge=*/false));
}

TEST(LoomStressTest, ManyShortLivedBackendsStartAndStopCleanly) {
  // Lifecycle churn: construct, feed a few edges, destroy — including
  // destruction with no Finalize, so a part-full window, live matches and
  // pooled match storage are torn down mid-stream (ASan/UBSan target).
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kDblp, 0.02);
  const stream::EdgeStream es =
      stream::MakeStream(ds.graph, stream::StreamOrder::kBreadthFirst);
  const std::vector<stream::StreamEdge> all(es.begin(), es.end());
  const engine::EngineOptions options = test_util::OptionsFor(ds, 4, 64);

  std::mt19937_64 rng(99);
  for (int round = 0; round < 12; ++round) {
    auto p = test_util::MakeBackend("loom", options, ds);
    ASSERT_NE(p, nullptr);
    const size_t n = rng() % std::min<size_t>(all.size(), 500);
    Feed(p.get(), all, 0, n, /*per_edge=*/rng() % 2 == 0);
    if (rng() % 2 == 0) {
      p->Finalize();
      // Finalize flushes the window: every endpoint seen so far is placed.
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(p->partitioning().IsAssigned(all[i].u)) << round;
        ASSERT_TRUE(p->partitioning().IsAssigned(all[i].v)) << round;
      }
    }
    // p destroyed here, possibly with a part-full window.
  }
}

TEST(ConcurrentBackendsTest, IndependentInstancesOnThreadsMatchSequentialRuns) {
  // Each thread owns its backend; the dataset and the registry are shared
  // read-only. Every thread must reproduce the sequential result exactly.
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kMusicBrainz, 0.05);
  const stream::EdgeStream es =
      stream::MakeStream(ds.graph, stream::StreamOrder::kRandom, 0x57e55);
  const std::vector<stream::StreamEdge> all(es.begin(), es.end());
  const engine::EngineOptions options = test_util::OptionsFor(ds);
  const std::vector<std::string> specs = {"loom", "loom", "ldg", "fennel"};

  auto run = [&](const std::string& spec) {
    auto p = test_util::MakeBackend(spec, options, ds);
    if (p == nullptr) return test_util::Quality{};
    Feed(p.get(), all, 0, all.size(), /*per_edge=*/false);
    p->Finalize();
    return test_util::QualityOf(*p, ds);
  };

  std::vector<test_util::Quality> sequential;
  for (const std::string& spec : specs) sequential.push_back(run(spec));

  std::vector<test_util::Quality> concurrent(specs.size());
  std::vector<std::thread> threads;
  threads.reserve(specs.size());
  for (size_t t = 0; t < specs.size(); ++t) {
    threads.emplace_back([&, t] { concurrent[t] = run(specs[t]); });
  }
  for (std::thread& th : threads) th.join();

  for (size_t t = 0; t < specs.size(); ++t) {
    EXPECT_EQ(concurrent[t], sequential[t]) << specs[t] << " thread " << t;
  }
}

}  // namespace
}  // namespace core
}  // namespace loom
