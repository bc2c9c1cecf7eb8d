// loom_generate — materialise a synthetic evaluation dataset (graph +
// canonical workload) to files usable by loom_partition, and/or export its
// edge sequence as a replayable stream file.
//
// Usage:
//   loom_generate --dataset dblp|provgen|musicbrainz|lubm-100|lubm-4000
//                 [--scale 1.0] [--graph-out G.lg] [--workload-out Q.lw]
//                 [--write-stream S.les] [--stream-format binary|text]
//                 [--order bfs|dfs|random|canonical] [--seed N] [--lazy]
//
// --write-stream exports the dataset's edge sequence (io/edge_stream_io.h)
// in the chosen arrival order; loom_partition --input replays it with
// bounded memory. With --lazy the edges come straight from the generator
// through engine::GeneratorEdgeSource — no graph is ever materialised, so
// LUBM exports at full paper scale on small machines (lazy orders:
// canonical/random; bfs/dfs need adjacency and therefore the materialised
// path). The lazy and materialised exports are bit-identical for the same
// order and seed.

#include <cstring>
#include <limits>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "datasets/dataset_registry.h"
#include "engine/generator_source.h"
#include "graph/graph_io.h"
#include "io/edge_stream_io.h"
#include "query/workload_io.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace loom;
  std::string dataset_name, graph_out, workload_out, stream_out;
  std::string format_name = "binary", order_name = "canonical";
  double scale = 1.0;
  uint64_t seed = 0x10c5;
  bool lazy = false;
  // Numeric flags parse through exception-free helpers: a typo'd value
  // must print the usual error line, not an unhandled-exception abort.
  bool parse_ok = true;
  auto parse_double = [&](const char* flag, const char* v, double* out) {
    // util::ParseFiniteDouble, not std::stod: stod accepts "nan"/"inf",
    // and a NaN scale passes every downstream range check unnoticed.
    if (!util::ParseFiniteDouble(v, out)) {
      std::cerr << flag << ": not a finite number: '" << v << "'\n";
      parse_ok = false;
    }
  };
  auto parse_u64 = [&](const char* flag, const char* v, uint64_t* out) {
    // Decimal digits only: no sign (std::stoull wraps "-1" to 2^64-1),
    // no trailing characters, nothing past 2^64-1.
    if (!util::ParseDecimal(std::string_view(v), out)) {
      std::cerr << flag << " needs an integer in [0, "
                << std::numeric_limits<uint64_t>::max() << "], got '" << v
                << "'\n";
      parse_ok = false;
    }
  };
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--dataset") == 0) {
      const char* v = value();
      if (v) dataset_name = v;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      const char* v = value();
      if (v) parse_double("--scale", v, &scale);
    } else if (std::strcmp(argv[i], "--graph-out") == 0) {
      const char* v = value();
      if (v) graph_out = v;
    } else if (std::strcmp(argv[i], "--workload-out") == 0) {
      const char* v = value();
      if (v) workload_out = v;
    } else if (std::strcmp(argv[i], "--write-stream") == 0) {
      const char* v = value();
      if (v) stream_out = v;
    } else if (std::strcmp(argv[i], "--stream-format") == 0) {
      const char* v = value();
      if (v) format_name = v;
    } else if (std::strcmp(argv[i], "--order") == 0) {
      const char* v = value();
      if (v) order_name = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = value();
      if (v) parse_u64("--seed", v, &seed);
    } else if (std::strcmp(argv[i], "--lazy") == 0) {
      lazy = true;
    }
  }
  if (!parse_ok) return 2;
  if (dataset_name.empty() ||
      (graph_out.empty() && workload_out.empty() && stream_out.empty())) {
    std::cerr << "usage: loom_generate --dataset NAME [--scale F]\n"
                 "         [--graph-out G.lg] [--workload-out Q.lw]\n"
                 "         [--write-stream S.les] [--stream-format "
                 "binary|text]\n"
                 "         [--order bfs|dfs|random|canonical] [--seed N] "
                 "[--lazy]\n"
                 "(at least one output flag is required)\n";
    return 2;
  }

  datasets::DatasetId id;
  if (dataset_name == "dblp") id = datasets::DatasetId::kDblp;
  else if (dataset_name == "provgen") id = datasets::DatasetId::kProvGen;
  else if (dataset_name == "musicbrainz") id = datasets::DatasetId::kMusicBrainz;
  else if (dataset_name == "lubm-100") id = datasets::DatasetId::kLubm100;
  else if (dataset_name == "lubm-4000") id = datasets::DatasetId::kLubm4000;
  else {
    std::cerr << "unknown dataset: " << dataset_name << "\n";
    return 2;
  }

  io::StreamFormat format = io::StreamFormat::kBinary;
  if (!io::ParseStreamFormat(format_name, &format)) {
    std::cerr << "unknown stream format: " << format_name << "\n";
    return 2;
  }
  stream::StreamOrder order = stream::StreamOrder::kCanonical;
  if (!stream::ParseStreamOrder(order_name, &order)) {
    std::cerr << "unknown order: " << order_name << "\n";
    return 2;
  }

  try {
    if (lazy) {
      if (!graph_out.empty()) {
        std::cerr << "--lazy cannot materialise a graph file; drop "
                     "--graph-out or the --lazy flag\n";
        return 2;
      }
      // Generator -> stream file, no graph in RAM at any point.
      engine::GeneratorEdgeSource source(id, scale, order, seed);
      if (!stream_out.empty()) {
        const uint64_t written = io::WriteEdgeStream(
            stream_out, source.registry(), source.NumVertices(), &source,
            format);
        std::cerr << "wrote " << written << " edges over "
                  << source.NumVertices() << " vertices to " << stream_out
                  << " (" << io::ToString(format) << ", " << order_name
                  << ", lazy)\n";
      }
      if (!workload_out.empty()) {
        graph::LabelRegistry registry = source.registry();
        query::Workload workload = datasets::WorkloadFor(id, &registry);
        query::WriteWorkloadFile(workload, registry, workload_out);
        std::cerr << "wrote " << workload.size() << " queries to "
                  << workload_out << "\n";
      }
      return 0;
    }

    datasets::Dataset ds = datasets::MakeDataset(id, scale);
    if (!graph_out.empty()) {
      graph::WriteGraphFile(ds.graph, ds.registry, graph_out);
      std::cerr << "wrote " << ds.NumVertices() << " vertices / "
                << ds.NumEdges() << " edges to " << graph_out << "\n";
    }
    if (!workload_out.empty()) {
      query::WriteWorkloadFile(ds.workload, ds.registry, workload_out);
      std::cerr << "wrote " << ds.workload.size() << " queries to "
                << workload_out << "\n";
    }
    if (!stream_out.empty()) {
      std::unique_ptr<engine::EdgeSource> source =
          engine::MakeEdgeSource(ds, order, seed);
      const uint64_t written = io::WriteEdgeStream(
          stream_out, ds.registry, ds.NumVertices(), source.get(), format);
      std::cerr << "wrote " << written << " edges to " << stream_out << " ("
                << io::ToString(format) << ", " << order_name << ")\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
