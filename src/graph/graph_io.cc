#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "util/string_util.h"
#include "util/text_io.h"

namespace loom {
namespace graph {

namespace {

[[noreturn]] void Fail(const std::string& why) {
  throw std::runtime_error("graph parse error: " + why);
}

/// One `V` record, with the line it came from for duplicate reports.
struct VertexRecord {
  uint64_t line;
  VertexId v;
  LabelId label;
};

}  // namespace

void WriteGraph(const LabeledGraph& g, const LabelRegistry& registry,
                std::ostream& os) {
  util::TextWriter out(os);
  out.Put("# loom graph: ");
  out.PutDecimal(g.NumVertices());
  out.Put(" vertices, ");
  out.PutDecimal(g.NumEdges());
  out.Put(" edges, ");
  out.PutDecimal(registry.size());
  out.Put(" labels\n");
  for (const std::string& name : registry.names()) {
    out.Put("L ");
    out.Put(name);
    out.Put('\n');
  }
  auto record = [&out](std::string_view kind, uint64_t a, uint64_t b) {
    out.Put(kind);
    out.PutDecimal(a);
    out.Put(' ');
    out.PutDecimal(b);
    out.Put('\n');
  };
  for (VertexId v = 0; v < g.NumVertices(); ++v) record("V ", v, g.label(v));
  for (const Edge& e : g.edges()) record("E ", e.u, e.v);
  out.Flush();
}

LabeledGraph ReadGraph(std::istream& is, LabelRegistry* registry) {
  util::LineReader lines(is);
  std::vector<Edge> edges;
  std::vector<VertexRecord> vertices;
  VertexId max_vertex = 0;

  auto fail = [&](const std::string& why) {
    Fail("line " + std::to_string(lines.line_number()) + ": " + why);
  };
  // A vertex id must fit VertexId and stay below the kInvalidVertex sentinel.
  auto vertex = [](std::string_view field, VertexId* out) {
    return util::ParseDecimal(field, out) && *out != kInvalidVertex;
  };
  std::string_view line;
  while (lines.Next(&line)) {
    std::string_view rest = line;
    const std::string_view kind = util::NextField(&rest);
    if (kind.empty() || kind[0] == '#') continue;  // blank or comment
    if (kind == "L") {
      const std::string_view name = util::NextField(&rest);
      if (name.empty()) fail("label name missing");
      if (!util::NextField(&rest).empty()) fail("expected 'L <name>'");
      registry->Intern(std::string(name));
    } else if (kind == "V") {
      VertexRecord r{lines.line_number(), 0, 0};
      if (!vertex(util::NextField(&rest), &r.v) ||
          !util::ParseDecimal(util::NextField(&rest), &r.label) ||
          !util::NextField(&rest).empty()) {
        fail("expected 'V <id> <label-id>' with a vertex id below " +
             std::to_string(kInvalidVertex));
      }
      if (r.label >= registry->size()) fail("label id out of range");
      vertices.push_back(r);
      max_vertex = std::max(max_vertex, r.v);
    } else if (kind == "E") {
      Edge e;
      if (!vertex(util::NextField(&rest), &e.u) ||
          !vertex(util::NextField(&rest), &e.v) ||
          !util::NextField(&rest).empty()) {
        fail("expected 'E <u> <v>' with vertex ids below " +
             std::to_string(kInvalidVertex));
      }
      edges.push_back(e);
    } else {
      fail("unknown record kind '" + std::string(kind) + "'");
    }
  }

  // Dense ids mean every id is below the number of V records; checking
  // that first bounds the label table by the input, not by the largest id.
  if (!vertices.empty() && max_vertex >= vertices.size()) {
    Fail("vertex id " + std::to_string(max_vertex) + " with only " +
         std::to_string(vertices.size()) +
         " V records (ids must be dense)");
  }
  const size_t n = vertices.size();
  std::vector<LabelId> labels(n, kInvalidLabel);
  for (const VertexRecord& r : vertices) {
    if (labels[r.v] != kInvalidLabel) {
      Fail("line " + std::to_string(r.line) + ": vertex " +
           std::to_string(r.v) + " is already defined");
    }
    labels[r.v] = r.label;
  }
  vertices = {};
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n) Fail("edge endpoint out of range");
  }
  return LabeledGraph::Builder(std::move(labels), std::move(edges)).Build();
}

void WriteGraphFile(const LabeledGraph& g, const LabelRegistry& registry,
                    const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  try {
    WriteGraph(g, registry, os);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + ": " + path);
  }
}

LabeledGraph ReadGraphFile(const std::string& path, LabelRegistry* registry) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return ReadGraph(is, registry);
}

}  // namespace graph
}  // namespace loom
