#include "query/workload_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "datasets/dataset_registry.h"

namespace loom {
namespace query {
namespace {

TEST(WorkloadIoTest, ParsesAllShapes) {
  std::stringstream ss(
      "# comment\n"
      "coauthor 0.4 path:Author-Paper-Author\n"
      "square 0.3 cycle:a-b-a-b\n"
      "hub 0.2 star:Center:Leaf1,Leaf2,Leaf3\n"
      "custom 0.1 edges:x,y,z:0-1;1-2;2-0\n");
  graph::LabelRegistry reg;
  Workload w = ReadWorkload(ss, &reg);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.queries()[0].name, "coauthor");
  EXPECT_EQ(w.queries()[0].pattern.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(w.queries()[0].frequency, 0.4);
  EXPECT_EQ(w.queries()[1].pattern.NumEdges(), 4u);  // 4-cycle
  EXPECT_EQ(w.queries()[2].pattern.NumEdges(), 3u);  // 3-leaf star
  EXPECT_EQ(w.queries()[3].pattern.NumEdges(), 3u);  // triangle
  EXPECT_EQ(reg.Find("Author"), 0);
}

TEST(WorkloadIoTest, RoundTripsThroughEdgesForm) {
  graph::LabelRegistry reg;
  datasets::Dataset ds = datasets::MakeFigure1Dataset();
  std::stringstream ss;
  WriteWorkload(ds.workload, ds.registry, ss);
  graph::LabelRegistry reg2;
  Workload back = ReadWorkload(ss, &reg2);
  ASSERT_EQ(back.size(), ds.workload.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.queries()[i].name, ds.workload.queries()[i].name);
    EXPECT_DOUBLE_EQ(back.queries()[i].frequency,
                     ds.workload.queries()[i].frequency);
    EXPECT_EQ(back.queries()[i].pattern.NumEdges(),
              ds.workload.queries()[i].pattern.NumEdges());
    EXPECT_EQ(back.queries()[i].pattern.NumVertices(),
              ds.workload.queries()[i].pattern.NumVertices());
  }

  // Frequencies survive a write/read exactly, including ones that six
  // significant digits would round.
  Workload odd;
  const graph::LabelId a = reg.Intern("a"), b = reg.Intern("b");
  odd.Add("third", graph::PatternGraph::Path({a, b}), 1.0 / 3);
  odd.Add("sum", graph::PatternGraph::Path({a, b}), 0.1 + 0.2);
  std::stringstream odd_ss;
  WriteWorkload(odd, reg, odd_ss);
  graph::LabelRegistry reg3;
  Workload odd_back = ReadWorkload(odd_ss, &reg3);
  ASSERT_EQ(odd_back.size(), 2u);
  EXPECT_EQ(odd_back.queries()[0].frequency, 1.0 / 3);
  EXPECT_EQ(odd_back.queries()[1].frequency, 0.1 + 0.2);
}

TEST(WorkloadIoTest, RejectsMalformedInput) {
  graph::LabelRegistry reg;
  auto expect_throw = [&](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(ReadWorkload(ss, &reg), std::runtime_error) << text;
  };
  expect_throw("q1 0.5\n");                        // missing shape
  expect_throw("q1 frequency path:a-b\n");         // bad frequency
  expect_throw("q1 -0.5 path:a-b\n");              // negative frequency
  expect_throw("q1 0.5 path:a\n");                 // path too short
  expect_throw("q1 0.5 cycle:a-b\n");              // cycle too short
  expect_throw("q1 0.5 blob:a-b\n");               // unknown kind
  expect_throw("q1 0.5 noshape\n");                // no colon
  expect_throw("q1 0.5 edges:a,b:0-5\n");          // endpoint out of range
  expect_throw("q1 0.5 edges:a,b:0-0\n");          // self loop
  expect_throw("q1 0.5 edges:a,b,c:0-1\n");        // disconnected (c isolated)
  expect_throw("q1 1.0 edges:a,b:x-1\n");          // non-numeric endpoint
  expect_throw("q1 1.0 edges:a,b:0-1x\n");         // trailing endpoint chars
  expect_throw("q1 1.0 path:a-b trailing junk\n"); // fourth field
  // Errors name the line and the offending token.
  auto message = [&](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      ReadWorkload(ss, &reg);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string endpoint = message("# c\nq1 1.0 edges:a,b:x-1\n");
  EXPECT_NE(endpoint.find("line 2"), std::string::npos) << endpoint;
  EXPECT_NE(endpoint.find("x-1"), std::string::npos) << endpoint;
  const std::string trailing = message("q1 1.0 path:a-b trailing junk\n");
  EXPECT_NE(trailing.find("line 1"), std::string::npos) << trailing;
  EXPECT_NE(trailing.find("trailing"), std::string::npos) << trailing;
}

TEST(WorkloadIoTest, MissingFileThrows) {
  graph::LabelRegistry reg;
  EXPECT_THROW(ReadWorkloadFile("/nonexistent/q.lw", &reg),
               std::runtime_error);
}

TEST(WorkloadIoTest, EmptyInputGivesEmptyWorkload) {
  std::stringstream ss("# nothing here\n\n");
  graph::LabelRegistry reg;
  Workload w = ReadWorkload(ss, &reg);
  EXPECT_TRUE(w.empty());
}

}  // namespace
}  // namespace query
}  // namespace loom
