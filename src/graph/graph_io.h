// Text serialisation of labelled graphs.
//
// Format (line-oriented, '#' comments):
//   L <label-name>        -- one per label, in LabelId order
//   V <vertex-id> <label-id>
//   E <u> <v>
// Vertex ids must be dense 0..n-1, each defined by one V line. Numeric
// fields are decimal digits that fit their type (vertex ids below
// kInvalidVertex) and nothing may follow a record's last field. This keeps
// generated datasets inspectable and lets users bring their own graphs to
// the examples.

#ifndef LOOM_GRAPH_GRAPH_IO_H_
#define LOOM_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/label_registry.h"
#include "graph/labeled_graph.h"

namespace loom {
namespace graph {

/// Writes `g` (and its label names) to `os`. Throws std::runtime_error if
/// `os` reports a write failure.
void WriteGraph(const LabeledGraph& g, const LabelRegistry& registry,
                std::ostream& os);

/// Reads a graph written by WriteGraph. Throws std::runtime_error on
/// malformed input, naming the line where there is one. Labels are
/// interned into `registry` in file order.
LabeledGraph ReadGraph(std::istream& is, LabelRegistry* registry);

/// File-path conveniences.
void WriteGraphFile(const LabeledGraph& g, const LabelRegistry& registry,
                    const std::string& path);
LabeledGraph ReadGraphFile(const std::string& path, LabelRegistry* registry);

}  // namespace graph
}  // namespace loom

#endif  // LOOM_GRAPH_GRAPH_IO_H_
