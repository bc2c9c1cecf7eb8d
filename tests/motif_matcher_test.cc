#include "motif/motif_matcher.h"

#include <gtest/gtest.h>

#include "datasets/workloads.h"
#include "graph/label_registry.h"

namespace loom {
namespace motif {
namespace {

using stream::SlidingWindow;
using stream::StreamEdge;

// Fixture around the Fig. 1 workload: motifs at T=40% are a-b, b-c, a-b-c;
// at T=5% every sub-graph (up to the 4-edge square) is a motif.
class MatcherTest : public ::testing::Test {
 protected:
  explicit MatcherTest(double threshold = 0.4)
      : values_(4, 251, 0xC0FFEE),
        calc_(&values_),
        trie_(&calc_, threshold),
        window_(100) {
    workload_ = datasets::Figure1Workload(&registry_);
    for (const auto& q : workload_.queries()) {
      trie_.AddQuery(q.pattern, q.frequency);
    }
    matcher_ = std::make_unique<MotifMatcher>(&trie_, &calc_);
    a_ = registry_.Find("a");
    b_ = registry_.Find("b");
    c_ = registry_.Find("c");
    d_ = registry_.Find("d");
  }

  StreamEdge E(graph::EdgeId id, graph::VertexId u, graph::LabelId lu,
               graph::VertexId v, graph::LabelId lv) {
    StreamEdge e;
    e.id = id;
    e.u = u;
    e.v = v;
    e.label_u = lu;
    e.label_v = lv;
    return e;
  }

  // Pushes into the window and runs the matcher.
  void Feed(const StreamEdge& e) {
    window_.Push(e);
    matcher_->OnEdgeAdded(e, window_, &ml_);
  }

  graph::LabelRegistry registry_;
  query::Workload workload_;
  signature::LabelValues values_;
  signature::SignatureCalculator calc_;
  tpstry::Tpstry trie_;
  SlidingWindow window_;
  MatchList ml_;
  std::unique_ptr<MotifMatcher> matcher_;
  graph::LabelId a_, b_, c_, d_;
};

TEST_F(MatcherTest, AdmissionTest) {
  EXPECT_NE(matcher_->SingleEdgeMotif(E(0, 1, a_, 2, b_)), nullptr);
  EXPECT_NE(matcher_->SingleEdgeMotif(E(0, 1, b_, 2, c_)), nullptr);
  // c-d occurs in q3 only (10% support): in the trie but not a motif.
  EXPECT_EQ(matcher_->SingleEdgeMotif(E(0, 1, c_, 2, d_)), nullptr);
  // a-d occurs in no query at all.
  EXPECT_EQ(matcher_->SingleEdgeMotif(E(0, 1, a_, 2, d_)), nullptr);
}

TEST_F(MatcherTest, SingleEdgeMatchRegistered) {
  Feed(E(0, 1, a_, 2, b_));
  EXPECT_EQ(ml_.NumLive(), 1u);
  auto at1 = ml_.LiveAt(1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(ml_.match(at1[0]).edges, (std::vector<graph::EdgeId>{0}));
  EXPECT_EQ(matcher_->stats().single_edge_matches, 1u);
}

TEST_F(MatcherTest, ExtensionFormsTwoEdgeMotif) {
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, c_));
  // Matches: {e0} (a-b), {e1} (b-c), {e0,e1} (a-b-c).
  EXPECT_EQ(ml_.NumLive(), 3u);
  EXPECT_EQ(matcher_->stats().extension_matches, 1u);
  auto at3 = ml_.LiveAt(3);
  bool found_abc = false;
  for (MatchHandle h : at3) {
    if (ml_.match(h).edges.size() == 2) found_abc = true;
  }
  EXPECT_TRUE(found_abc);
}

TEST_F(MatcherTest, NonAdjacentEdgesDoNotCombine) {
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 5, a_, 6, b_));
  EXPECT_EQ(ml_.NumLive(), 2u);  // just the two singles
  EXPECT_EQ(matcher_->stats().extension_matches, 0u);
}

TEST_F(MatcherTest, AbaPathNotAMotifAtFortyPercent) {
  // a-b plus another a-b sharing the b vertex = a-b-a: support 30% < T.
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 3, a_, 2, b_));
  EXPECT_EQ(ml_.NumLive(), 2u);  // extensions rejected by motif filter
}

TEST_F(MatcherTest, DuplicateDiscoveryIsDeduped) {
  // Triangle-ish feeding order that could find a-b-c twice.
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, c_));
  size_t live_before = ml_.NumLive();
  // Re-feeding the same structural edge with a NEW id forms new matches (it
  // is a distinct stream element), but the existing pairs stay deduped.
  Feed(E(2, 4, a_, 2, b_));
  EXPECT_GE(ml_.NumLive(), live_before + 1);
}

TEST_F(MatcherTest, ExtensionCapTakesDistinctMatchesUFirst) {
  // x=1 (a), y=2 (b), z=3 (c). After e0=(x,y) and e1=(y,z) the live
  // matches are {e0}, {e1} and {e0,e1}. e2=(x,y) runs parallel to e0: x
  // then holds {e0}, {e0,e1} and e2's own {e2}, each of which also contains
  // y, and y adds only {e1}, whose extension by e2 is the new a-b-c match
  // {e1,e2}. Extension tries the first 2 x cap distinct live matches, x's
  // first: cap 2 reaches {e1} past the three shared ones, cap 1 does not.
  auto extensions_with_cap = [&](size_t cap) {
    MotifMatcher matcher(&trie_, &calc_, MatcherConfig{cap});
    SlidingWindow window(100);
    MatchList ml;
    for (const StreamEdge& e :
         {E(0, 1, a_, 2, b_), E(1, 2, b_, 3, c_), E(2, 1, a_, 2, b_)}) {
      window.Push(e);
      matcher.OnEdgeAdded(e, window, &ml);
    }
    return matcher.stats().extension_matches;
  };
  EXPECT_EQ(extensions_with_cap(2), 2u);  // {e0,e1} and {e1,e2}
  EXPECT_EQ(extensions_with_cap(1), 1u);  // {e0,e1} only
}

// Lower threshold: every Fig. 1 sub-graph is a motif, enabling joins.
class JoinMatcherTest : public MatcherTest {
 protected:
  JoinMatcherTest() : MatcherTest(0.05) {}
};

TEST_F(JoinMatcherTest, BridgingEdgeJoinsTwoMatches) {
  // Two disjoint a-b edges, then a bridge making the 3-edge path b-a-b-a:
  // vertices 1(a)-2(b) and 3(a)-4(b); bridge (2,3).
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 3, a_, 4, b_));
  ASSERT_EQ(ml_.NumLive(), 2u);
  Feed(E(2, 2, b_, 3, a_));
  // Expect at least: 3 singles, two 2-edge extensions ({e0,e2}, {e1,e2}) and
  // the 3-edge join {e0,e1,e2}.
  EXPECT_GE(matcher_->stats().extension_matches, 2u);
  EXPECT_GE(matcher_->stats().join_matches, 1u);
  bool found_three = false;
  for (MatchHandle h : ml_.LiveAt(2)) {
    if (ml_.match(h).edges.size() == 3) found_three = true;
  }
  EXPECT_TRUE(found_three);
}

TEST_F(JoinMatcherTest, SquareCompletesViaAllFourEdges) {
  // Fig. 1's q1: the a-b-a-b square 1(a)-2(b)-3(a)-4(b)-1.
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, a_));
  Feed(E(2, 3, a_, 4, b_));
  Feed(E(3, 4, b_, 1, a_));
  bool found_square = false;
  for (MatchHandle h : ml_.LiveAt(1)) {
    if (ml_.match(h).edges.size() == 4) found_square = true;
  }
  EXPECT_TRUE(found_square) << "the 4-edge square motif must be matched";
}

TEST_F(JoinMatcherTest, MatchesNeverExceedLargestMotif) {
  // Feed a long a-b-a-b-... path; no match may exceed the largest motif (4
  // edges, the square — but a 5-vertex path is not a sub-graph of any query,
  // so 4-edge *path* matches must not appear either).
  const uint32_t max_edges = trie_.MaxMotifEdges();
  for (graph::EdgeId i = 0; i < 12; ++i) {
    graph::LabelId lu = (i % 2 == 0) ? a_ : b_;
    graph::LabelId lv = (i % 2 == 0) ? b_ : a_;
    Feed(E(i, i, lu, i + 1, lv));
  }
  for (graph::VertexId v = 0; v <= 12; ++v) {
    for (MatchHandle h : ml_.LiveAt(v)) {
      const Match& m = ml_.match(h);
      EXPECT_LE(m.edges.size(), max_edges);
      // Paths of length 4 are not sub-graphs of q1/q2/q3.
      if (m.edges.size() == 4) {
        // Must be the square (4 vertices), not a path (5 vertices).
        EXPECT_EQ(m.vertices.size(), 4u);
      }
    }
  }
}

TEST_F(MatcherTest, StatsAccumulate) {
  Feed(E(0, 1, a_, 2, b_));
  Feed(E(1, 2, b_, 3, c_));
  const MatcherStats& s = matcher_->stats();
  EXPECT_EQ(s.edges_admitted, 2u);
  EXPECT_EQ(s.single_edge_matches, 2u);
  EXPECT_EQ(s.extension_matches, 1u);
}

}  // namespace
}  // namespace motif
}  // namespace loom
