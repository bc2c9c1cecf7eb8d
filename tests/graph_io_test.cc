#include "graph/graph_io.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/dataset_registry.h"
#include "util/text_io.h"

namespace loom {
namespace graph {
namespace {

namespace fs = std::filesystem;

// Parses `text` and returns the error message, or "" if it parsed.
std::string ReadError(const std::string& text) {
  std::istringstream in(text);
  LabelRegistry reg;
  try {
    ReadGraph(in, &reg);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void ExpectSameGraph(const LabeledGraph& a, const LabeledGraph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.labels(), b.labels());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    ASSERT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    ASSERT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    const auto na = a.Neighbors(v), nb = b.Neighbors(v);
    const auto ea = a.IncidentEdges(v), eb = b.IncidentEdges(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "vertex " << v;
    ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()))
        << "vertex " << v;
  }
}

// Appends comment lines to `s` until it is exactly `size` bytes long.
void PadWithComments(std::string* s, size_t size) {
  while (s->size() < size) {
    const size_t left = size - s->size();
    const size_t line = left < 80 ? left : 60;  // the last line fills the gap
    s->append("#" + std::string(line - 2, 'p') + "\n");
  }
}

TEST(GraphIoTest, RoundTripSmallGraph) {
  LabelRegistry reg;
  reg.Intern("a");
  reg.Intern("b");
  LabeledGraph::Builder b;
  VertexId v0 = b.AddVertex(0);
  VertexId v1 = b.AddVertex(1);
  VertexId v2 = b.AddVertex(0);
  b.AddEdge(v0, v1);
  b.AddEdge(v1, v2);
  LabeledGraph g = b.Build();

  std::stringstream ss;
  WriteGraph(g, reg, ss);

  LabelRegistry reg2;
  LabeledGraph g2 = ReadGraph(ss, &reg2);
  EXPECT_EQ(g2.NumVertices(), g.NumVertices());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(reg2.size(), reg.size());
  EXPECT_EQ(reg2.Name(0), "a");
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(g2.label(v), g.label(v));
  }
  EXPECT_TRUE(g2.HasEdge(0, 1));
  EXPECT_TRUE(g2.HasEdge(1, 2));
  EXPECT_FALSE(g2.HasEdge(0, 2));
}

TEST(GraphIoTest, RoundTripFigure1Dataset) {
  datasets::Dataset ds = datasets::MakeFigure1Dataset();
  std::stringstream ss;
  WriteGraph(ds.graph, ds.registry, ss);
  LabelRegistry reg2;
  LabeledGraph g2 = ReadGraph(ss, &reg2);
  EXPECT_EQ(g2.NumVertices(), ds.graph.NumVertices());
  EXPECT_EQ(g2.NumEdges(), ds.graph.NumEdges());
}

TEST(GraphIoTest, IgnoresCommentsAndBlankLines) {
  std::stringstream ss("# comment\n\nL a\nV 0 0\nV 1 0\nE 0 1\n");
  LabelRegistry reg;
  LabeledGraph g = ReadGraph(ss, &reg);
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphIoTest, RejectsUnknownRecordKind) {
  std::stringstream ss("X nonsense\n");
  LabelRegistry reg;
  EXPECT_THROW(ReadGraph(ss, &reg), std::runtime_error);
}

TEST(GraphIoTest, RejectsLabelOutOfRange) {
  std::stringstream ss("L a\nV 0 3\n");
  LabelRegistry reg;
  EXPECT_THROW(ReadGraph(ss, &reg), std::runtime_error);
}

TEST(GraphIoTest, RejectsSparseVertexIds) {
  std::stringstream ss("L a\nV 0 0\nV 2 0\nE 0 2\n");
  LabelRegistry reg;
  EXPECT_THROW(ReadGraph(ss, &reg), std::runtime_error);
}

TEST(GraphIoTest, RejectsEdgeEndpointOutOfRange) {
  std::stringstream ss("L a\nV 0 0\nE 0 5\n");
  LabelRegistry reg;
  EXPECT_THROW(ReadGraph(ss, &reg), std::runtime_error);
}

// WriteGraph's bytes, recorded from the iostream writer it replaced: the
// format on disk must not move by a byte.
TEST(GraphIoTest, WriteGraphGoldenBytes) {
  LabelRegistry reg;
  reg.Intern("Person");
  reg.Intern("Film");
  reg.Intern("x-y_z");
  LabeledGraph::Builder b;
  for (int i = 0; i < 12; ++i) b.AddVertex(static_cast<LabelId>(i % 3));
  b.AddEdge(0, 11);
  b.AddEdge(11, 0);  // duplicate, dropped by Build
  b.AddEdge(5, 5);   // self-loop, dropped by Build
  b.AddEdge(10, 3);
  b.AddEdge(1, 2);
  b.AddEdge(9, 10);
  std::ostringstream out;
  WriteGraph(b.Build(), reg, out);
  EXPECT_EQ(out.str(),
            "# loom graph: 12 vertices, 4 edges, 3 labels\n"
            "L Person\n"
            "L Film\n"
            "L x-y_z\n"
            "V 0 0\n"
            "V 1 1\n"
            "V 2 2\n"
            "V 3 0\n"
            "V 4 1\n"
            "V 5 2\n"
            "V 6 0\n"
            "V 7 1\n"
            "V 8 2\n"
            "V 9 0\n"
            "V 10 1\n"
            "V 11 2\n"
            "E 0 11\n"
            "E 1 2\n"
            "E 3 10\n"
            "E 9 10\n");
}

// DBLP at scale 1 writes ~1.2 MB, more than one read/write block, so both
// the writer's drain and the reader's refill run. Size and FNV-1a of the
// bytes were recorded from the iostream writer this one replaced.
TEST(GraphIoTest, FileLargerThanOneBlockRoundTripsExactly) {
  const datasets::Dataset ds =
      datasets::MakeDataset(datasets::DatasetId::kDblp, 1.0);
  const fs::path path = fs::path(testing::TempDir()) / "graph_io_dblp.lg";
  WriteGraphFile(ds.graph, ds.registry, path.string());

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), util::kTextBufferBytes);
  EXPECT_EQ(bytes.size(), 1197934u);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  EXPECT_EQ(h, 0x6b06931178c06f66ULL);

  LabelRegistry reg;
  const LabeledGraph g = ReadGraphFile(path.string(), &reg);
  EXPECT_EQ(reg.names(), ds.registry.names());
  ExpectSameGraph(g, ds.graph);

  // The istream overload feeds the same scanner.
  std::istringstream from_memory(bytes);
  LabelRegistry reg2;
  ExpectSameGraph(ReadGraph(from_memory, &reg2), ds.graph);
}

// CRLF endings, blank and whitespace-only lines, comments and a last line
// with no newline, placed so that the block boundary falls on every byte
// of them in turn.
TEST(GraphIoTest, LinesStraddlingABlockRefillParseAlike) {
  const std::string head = "L a\r\nL b\n";
  const std::string tail =
      "# comment across the refill\r\n"
      "\r\n"
      "  \t\n"
      "V 0 1\r\n"
      "  V 1 0  \n"
      "#\n"
      "E 0 1\r\n"
      "V 2 1\r\n"
      "E 1 2";  // no final newline
  for (size_t shift = 0; shift <= tail.size(); ++shift) {
    std::string text = head;
    PadWithComments(&text, util::kTextBufferBytes - shift);
    ASSERT_EQ(text.size(), util::kTextBufferBytes - shift);
    text += tail;
    std::istringstream in(text);
    LabelRegistry reg;
    const LabeledGraph g = ReadGraph(in, &reg);
    ASSERT_EQ(reg.size(), 2u) << "shift " << shift;
    EXPECT_EQ(reg.Name(1), "b");
    ASSERT_EQ(g.NumVertices(), 3u) << "shift " << shift;
    EXPECT_EQ(g.labels(), (std::vector<LabelId>{1, 0, 1}));
    ASSERT_EQ(g.NumEdges(), 2u) << "shift " << shift;
    EXPECT_TRUE(g.HasEdge(0, 1));
    EXPECT_TRUE(g.HasEdge(1, 2));
  }
}

TEST(GraphIoTest, LineLongerThanABlockIsCarriedWhole) {
  const std::string name(util::kTextBufferBytes + 100, 'n');
  std::istringstream in("L " + name + "\nV 0 0\n");
  LabelRegistry reg;
  const LabeledGraph g = ReadGraph(in, &reg);
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.Name(0), name);
  EXPECT_EQ(g.NumVertices(), 1u);
}

TEST(GraphIoTest, ErrorPastTheFirstBlockNamesItsLine) {
  std::string text = "L a\n";
  uint64_t lines = 1;
  for (VertexId v = 0; text.size() < 2 * util::kTextBufferBytes; ++v) {
    text += "V " + std::to_string(v) + " 0\n";
    ++lines;
  }
  text += "E 0 x\n";
  const std::string error = ReadError(text);
  EXPECT_NE(error.find("line " + std::to_string(lines + 1) + ":"),
            std::string::npos)
      << error;
}

// Fields are decimal digits that fit their type; ids stay below the
// kInvalidVertex sentinel; nothing may trail a record. Each of these used
// to be accepted, most of them by wrapping to another id.
TEST(GraphIoTest, RejectsFieldsThatDoNotFitOrTrail) {
  const std::string head = "L a\nV 0 0\nV 1 0\n";
  for (const char* bad : {
           "V 4294967296 0",  // wrapped to vertex 0
           "V 4294967295 0",  // the kInvalidVertex sentinel
           "V 2 65536",       // label wrapped to 0
           "V 2 0 0",
           "V 2",
           "V +2 0",
           "V 0x2 0",
           "E 0 4294967297",  // wrapped to vertex 1
           "E -4294967295 0",  // negated and wrapped to vertex 1
           "E 0 1 garbage",
           "E 0 1.0",
           "E 0",
           "L b c",
           "L",
           "X 0 1",
           "V0 0",
       }) {
    const std::string error = ReadError(head + bad + "\n");
    EXPECT_NE(error.find("line 4:"), std::string::npos)
        << "'" << bad << "' -> " << error;
  }
}

TEST(GraphIoTest, RejectsDuplicateVertexIds) {
  const std::string error = ReadError("L a\nL b\nV 0 0\nV 1 0\nV 0 1\n");
  EXPECT_NE(error.find("line 5:"), std::string::npos) << error;
  EXPECT_NE(error.find("vertex 0 is already defined"), std::string::npos)
      << error;
}

// Dense ids mean max id < number of V records, which is checked before the
// label table is sized: a tiny file cannot ask for gigabytes. The smallest
// id runs first, and a breach stops the test before the larger ones.
TEST(GraphIoTest, HugeSparseIdFailsBeforeAllocating) {
  for (const char* id : {"100000000", "3000000000", "4294967294"}) {
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const std::string error = ReadError(std::string("L a\nV ") + id + " 0\n");
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    // ru_maxrss is in KiB. The unguarded label table for 1e8 ids alone is
    // 200 MB; the reader's own block is 1 MiB.
    ASSERT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024) << id;
    EXPECT_NE(error.find("ids must be dense"), std::string::npos) << error;
  }
}

TEST(GraphIoTest, MissingFileThrows) {
  LabelRegistry reg;
  EXPECT_THROW(ReadGraphFile("/nonexistent/path/graph.txt", &reg),
               std::runtime_error);
}

}  // namespace
}  // namespace graph
}  // namespace loom
