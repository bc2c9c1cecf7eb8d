#include "query/workload_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace loom {
namespace query {

namespace {

[[noreturn]] void Fail(size_t line_no, const std::string& why) {
  throw std::runtime_error("workload parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

std::vector<graph::LabelId> ParseLabels(const std::string& spec,
                                        graph::LabelRegistry* registry,
                                        char delim) {
  std::vector<graph::LabelId> labels;
  for (const std::string& part : util::Split(spec, delim)) {
    const std::string name = util::Trim(part);
    if (name.empty()) continue;
    labels.push_back(registry->Intern(name));
  }
  return labels;
}

// Generic form: edges:<label0>,<label1>,...:<u>-<v>;<u>-<v>;...
graph::PatternGraph ParseEdgesForm(const std::string& body, size_t line_no,
                                   graph::LabelRegistry* registry) {
  const std::vector<std::string> parts = util::Split(body, ':');
  if (parts.size() != 2) Fail(line_no, "edges form needs <labels>:<edges>");
  graph::PatternGraph p;
  for (graph::LabelId l : ParseLabels(parts[0], registry, ',')) p.AddVertex(l);
  for (const std::string& edge_spec : util::Split(parts[1], ';')) {
    const std::string trimmed = util::Trim(edge_spec);
    if (trimmed.empty()) continue;
    const std::vector<std::string> uv = util::Split(trimmed, '-');
    if (uv.size() != 2) Fail(line_no, "edge must be <u>-<v>: " + trimmed);
    graph::VertexId u = 0, v = 0;
    if (!util::ParseDecimal(uv[0], &u) || !util::ParseDecimal(uv[1], &v)) {
      Fail(line_no, "edge endpoints must be vertex indices: " + trimmed);
    }
    if (u >= p.NumVertices() || v >= p.NumVertices()) {
      Fail(line_no, "edge endpoint out of range: " + trimmed);
    }
    if (!p.AddEdge(u, v)) {
      Fail(line_no, "self loop or duplicate edge: " + trimmed);
    }
  }
  return p;
}

}  // namespace

Workload ReadWorkload(std::istream& is, graph::LabelRegistry* registry) {
  Workload w;
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    line = util::Trim(line);
    if (line.empty() || line[0] == '#') continue;

    std::istringstream ls(line);
    std::string name, freq_str, shape;
    if (!(ls >> name >> freq_str >> shape)) {
      Fail(line_no, "expected '<name> <frequency> <shape-spec>'");
    }
    std::string extra;
    if (ls >> extra) Fail(line_no, "unexpected trailing field '" + extra + "'");
    // Finite-only parse: std::stod would accept "nan", and NaN slips past
    // the positivity check below (NaN <= 0.0 is false) into every weighted
    // ipt computation.
    double frequency = 0.0;
    if (!util::ParseFiniteDouble(freq_str, &frequency)) {
      Fail(line_no, "bad frequency: " + freq_str);
    }
    if (frequency <= 0.0) Fail(line_no, "frequency must be positive");

    const size_t colon = shape.find(':');
    if (colon == std::string::npos) {
      Fail(line_no, "shape must be path:/cycle:/star:/edges:");
    }
    const std::string kind = shape.substr(0, colon);
    const std::string body = shape.substr(colon + 1);

    graph::PatternGraph pattern;
    if (kind == "path") {
      auto labels = ParseLabels(body, registry, '-');
      if (labels.size() < 2) Fail(line_no, "path needs >= 2 labels");
      pattern = graph::PatternGraph::Path(labels);
    } else if (kind == "cycle") {
      auto labels = ParseLabels(body, registry, '-');
      if (labels.size() < 3) Fail(line_no, "cycle needs >= 3 labels");
      pattern = graph::PatternGraph::Cycle(labels);
    } else if (kind == "star") {
      const std::vector<std::string> parts = util::Split(body, ':');
      if (parts.size() != 2) Fail(line_no, "star needs <center>:<leaves>");
      auto center = registry->Intern(util::Trim(parts[0]));
      auto leaves = ParseLabels(parts[1], registry, ',');
      if (leaves.empty()) Fail(line_no, "star needs >= 1 leaf");
      pattern = graph::PatternGraph::Star(center, leaves);
    } else if (kind == "edges") {
      pattern = ParseEdgesForm(body, line_no, registry);
    } else {
      Fail(line_no, "unknown shape kind '" + kind + "'");
    }
    if (!pattern.IsConnected() || pattern.NumEdges() == 0) {
      Fail(line_no, "pattern must be connected with >= 1 edge");
    }
    w.Add(name, std::move(pattern), frequency);
  }
  return w;
}

void WriteWorkload(const Workload& w, const graph::LabelRegistry& registry,
                   std::ostream& os) {
  os << "# loom workload: " << w.size() << " queries\n";
  for (const Query& q : w.queries()) {
    // Shortest round-trip form, so reading the file back yields the same
    // double (operator<< rounds to 6 significant digits). 32 bytes fit any
    // double's shortest form.
    char freq[32];
    const char* end = std::to_chars(freq, freq + sizeof freq, q.frequency).ptr;
    os << q.name << " " << std::string_view(freq, end - freq) << " edges:";
    for (size_t i = 0; i < q.pattern.NumVertices(); ++i) {
      if (i) os << ",";
      os << registry.Name(q.pattern.label(static_cast<graph::VertexId>(i)));
    }
    os << ":";
    for (size_t i = 0; i < q.pattern.NumEdges(); ++i) {
      if (i) os << ";";
      const graph::Edge& e = q.pattern.edge(static_cast<graph::EdgeId>(i));
      os << e.u << "-" << e.v;
    }
    os << "\n";
  }
}

Workload ReadWorkloadFile(const std::string& path,
                          graph::LabelRegistry* registry) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return ReadWorkload(is, registry);
}

void WriteWorkloadFile(const Workload& w, const graph::LabelRegistry& registry,
                       const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  WriteWorkload(w, registry, os);
}

}  // namespace query
}  // namespace loom
