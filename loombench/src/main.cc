// loombench — the repository benchmark: one workload per run.
//
//   loombench --workload mb-bfs|lubm-rand-file|serve-dblp --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// A run sets its inputs up several times (setup_s is their median), then
// spends its --seconds on two legs:
//   * offline: repeated Session drives of the workload's stream, each one
//     evaluated (weighted ipt, edge cut, imbalance) and checked — the
//     quality triple and every motif/core counter must repeat exactly;
//   * serve: loom_serve hosting the same stream, driven by an open-loop
//     INGEST rate ladder beside a closed-loop GET reader, then finalized and
//     checked bit-for-bit against the offline result.
// The last stdout line is the result object; the line before it is the
// full record (host fingerprint, percentile summaries, per-rung results).
// With --trace 1 the run records spans around every call into loom_core,
// alternates traced and untraced drives, prints per-layer metrics and
// writes the spans to DIR/../traces/.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/loom_partitioner.h"
#include "datasets/dataset_registry.h"
#include "datasets/dblp_generator.h"
#include "datasets/lubm_generator.h"
#include "datasets/musicbrainz_generator.h"
#include "engine/session.h"
#include "graph/graph_algos.h"
#include "graph/graph_io.h"
#include "io/assignment_sink.h"
#include "io/edge_stream_io.h"
#include "partition/partition_metrics.h"
#include "query/workload_io.h"
#include "query/workload_runner.h"
#include "stats.h"
#include "stream/stream_order.h"
#include "trace.h"
#include "util/simd.h"

namespace loombench {

void Ops::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

using namespace loom;

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  datasets::DatasetId dataset;
  double scale;  // reproduction scale (1.0 = the Table 1 defaults)
  stream::StreamOrder order;
  bool from_file;             // replay LOOMES through FileEdgeSource + sink
  uint64_t checkpoint_every;  // edges between checkpoints (0 = none)
  std::vector<ServeConfig::RungSpec> ladder;
  double offline_share;  // of --seconds
};

// Why these three (k=8, window 10k, loom throughout):
//   mb-bfs: MusicBrainz in BFS order, generated in-process. Matcher-heavy:
//     ~22% of edges pass admission, join attempts run ~12x admitted with no
//     join match, and match commit/release churn is high: where motif and
//     core optimisations must show.
//   lubm-rand-file: LUBM in random order replayed from a LOOMES file into a
//     file assignment sink. Bypass-heavy (few edges admitted), so io, LDG
//     placement and adjacency do most of the work — a matcher change should
//     leave it flat.
//   serve-dblp: DBLP hosted by loom_serve with periodic checkpoints; the
//     ladder sits below and around the decision thread's capacity. Traced
//     drives also time one Session::Checkpoint of the finished session.
// Ladders: rung 0 is the reference rate, well below capacity, where the
// serve latencies are taken; rung 1 stays below the service's
// capacity and rung 2 far above it on a 4-CPU host, both when the host is
// quiet and when neighbours slow it by ~40%, so the highest passing rung
// does not flip with host noise. Every stream is long enough for the whole
// ladder. serve-dblp's server checkpoints every 50k edges, about every
// other segment at its reference rate; more would load the disk enough to
// disturb everything else the run measures.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"mb-bfs", datasets::DatasetId::kMusicBrainz, 3.2,
       stream::StreamOrder::kBreadthFirst, false, 0,
       {{80e3, 0.5, 8}, {160e3, 0.5, 1}, {640e3, 0.25, 1}}, 0.8},
      {"lubm-rand-file", datasets::DatasetId::kLubm100, 6.0,
       stream::StreamOrder::kRandom, true, 0,
       {{100e3, 0.5, 8}, {160e3, 0.5, 1}, {800e3, 0.25, 1}}, 0.8},
      {"serve-dblp", datasets::DatasetId::kDblp, 5.5,
       stream::StreamOrder::kBreadthFirst, false, 50000,
       {{50e3, 0.5, 8}, {80e3, 0.5, 1}, {400e3, 0.25, 1}}, 0.7},
  };
  return kWorkloads;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

constexpr uint32_t kParts = 8;
constexpr uint64_t kWindow = 10000;
constexpr int kSetups = 5;
constexpr int kEvaluations = 3;  // per drive; each must give the same result
constexpr const char* kSubjectSpec = "loom";

// ------------------------------------------------------------ json output

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string SummaryJson(const Summary& s) {
  return "{\"median\": " + Num(s.median) + ", \"p" +
         Num(s.tail_q * 100.0) + "\": " + Num(s.tail) +
         ", \"n\": " + std::to_string(s.n) + "}";
}

// ---------------------------------------------------------- fingerprint

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

/// Everything a timing depends on besides the code: results are only
/// timing-comparable when these match.
std::string FingerprintJson() {
  return std::string("{\"cpu\": ") + Json(CpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + Json(LOOMBENCH_COMPILER) +
         ", \"flags\": " + Json(LOOMBENCH_FLAGS) +
         ", \"build_type\": " + Json(LOOMBENCH_BUILD_TYPE) +
         ", \"simd\": " +
         Json(util::simd::LevelName(util::simd::ActiveLevel())) +
         ", \"LOOM_ADJ_PAGE\": " + Json(EnvOr("LOOM_ADJ_PAGE", "default")) +
         ", \"LOOM_HUB_THRESHOLD\": " +
         Json(EnvOr("LOOM_HUB_THRESHOLD", "default")) + "}";
}

// ---------------------------------------------------------------- setup

datasets::Dataset Generate(const WorkloadSpec& spec, uint64_t seed) {
  // The seed perturbs the generator's own seed, so each seed is a different
  // graph of the same shape.
  const uint64_t mix = (seed + 1) * 0x9E3779B97F4A7C15ull;
  auto scaled = [&](double base) {
    return static_cast<size_t>(std::llround(base * spec.scale));
  };
  datasets::Dataset ds;
  switch (spec.dataset) {
    case datasets::DatasetId::kMusicBrainz: {
      datasets::MusicBrainzConfig c;
      c.num_albums = scaled(18000);
      c.seed ^= mix;
      ds = datasets::GenerateMusicBrainz(c);
      break;
    }
    case datasets::DatasetId::kLubm100: {
      datasets::LubmConfig c;
      c.universities = scaled(100);
      c.name = "lubm-100";
      c.seed ^= mix;
      ds = datasets::GenerateLubm(c);
      break;
    }
    case datasets::DatasetId::kDblp: {
      datasets::DblpConfig c;
      c.num_papers = scaled(12000);
      c.seed ^= mix;
      ds = datasets::GenerateDblp(c);
      break;
    }
    default:
      throw std::invalid_argument("dataset has no workload here");
  }
  // Same normalisation as datasets::MakeDataset.
  ds.workload = datasets::WorkloadFor(spec.dataset, &ds.registry);
  ds.graph = graph::DropIsolatedVertices(ds.graph);
  return ds;
}

/// What setup hands the measured legs.
struct Inputs {
  datasets::Dataset ds;
  std::unique_ptr<engine::EdgeSource> source;  // the stream, in order
  std::string stream_path;  // LOOMES file (file workloads; serve leg)
  std::string workload_path;
  uint64_t stream_bytes = 0;
  double hash_ipt = 0.0;
  size_t motifs = 0;
};

engine::SessionConfig SessionConfigFor(const std::string& spec,
                                       const datasets::Dataset& ds) {
  engine::SessionConfig cfg;
  cfg.spec = spec;
  cfg.options.k = kParts;
  cfg.options.window_size = kWindow;
  cfg.options.expected_vertices = ds.NumVertices();
  cfg.options.expected_edges = ds.NumEdges();
  return cfg;
}

std::unique_ptr<engine::Session> CreateSession(const std::string& spec,
                                               const datasets::Dataset& ds) {
  std::string error;
  auto session = engine::Session::Create(
      SessionConfigFor(spec, ds), {&ds.workload, ds.NumLabels()}, &error);
  if (session == nullptr) throw std::runtime_error("session: " + error);
  return session;
}

const query::ExecutorConfig kExecutor{.max_seeds = 4000,
                                      .max_matches_per_seed = 256};

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

void ExportStream(const datasets::Dataset& ds, engine::EdgeSource* source,
                  const std::string& stream_path,
                  const std::string& workload_path) {
  io::WriteEdgeStream(stream_path, ds.registry, ds.NumVertices(), source);
  query::WriteWorkloadFile(ds.workload, ds.registry, workload_path);
}

/// One full setup: everything before the first ingested edge. Fills `in`
/// in place: its source refers to its graph.
void Setup(const WorkloadSpec& spec, uint64_t seed,
           const std::string& work_dir, Tracer* tr, int parent, Inputs* out) {
  Inputs& in = *out;
  in.stream_path = work_dir + "/stream.les";
  in.workload_path = work_dir + "/workload.lw";

  int s = tr->Begin("datasets.generate", parent);
  datasets::Dataset generated = Generate(spec, seed);
  tr->End(s);

  s = tr->Begin("stream.order", parent);
  std::vector<graph::EdgeId> order =
      stream::EdgeOrderFor(generated.graph, spec.order, seed);
  tr->End(s);

  if (spec.from_file) {
    // The user's view: a graph file, a workload file and a stream file on
    // disk. Export them, then load them back the way loom_partition does.
    const std::string graph_path = work_dir + "/graph.lg";
    s = tr->Begin("io.export", parent);
    engine::GraphEdgeSource ordered(generated.graph, order);
    ExportStream(generated, &ordered, in.stream_path, in.workload_path);
    graph::WriteGraphFile(generated.graph, generated.registry, graph_path);
    tr->End(s);
    generated = datasets::Dataset{};

    s = tr->Begin("graph.load", parent);
    auto file = std::make_unique<io::FileEdgeSource>(in.stream_path);
    std::string error;
    if (!file->InternLabels(&in.ds.registry, &error)) {
      throw std::runtime_error(error);
    }
    in.ds.graph = graph::ReadGraphFile(graph_path, &in.ds.registry);
    in.ds.workload =
        query::ReadWorkloadFile(in.workload_path, &in.ds.registry);
    in.source = std::move(file);
    in.stream_bytes = FileBytes(in.stream_path);
    tr->End(s);
  } else {
    in.ds = std::move(generated);
    in.source = std::make_unique<engine::GraphEdgeSource>(in.ds.graph,
                                                          std::move(order));
  }

  // Session creation builds the TPSTry and the signature tables.
  s = tr->Begin("tpstry.build", parent);
  auto session = CreateSession(kSubjectSpec, in.ds);
  tr->End(s);
  auto& loom_backend = dynamic_cast<core::LoomPartitioner&>(session->backend());
  in.motifs = loom_backend.trie().MotifIds().size();
  session.reset();

  // Hash is the ipt reference. It places by vertex id alone, so the
  // canonical order gives the partition any order of these edges would.
  s = tr->Begin("baseline.hash", parent);
  {
    auto hash = CreateSession("hash", in.ds);
    auto src = engine::MakeEdgeSource(in.ds.graph,
                                      stream::StreamOrder::kCanonical);
    hash->Run(*src);
    in.hash_ipt = query::RunWorkload(in.ds.graph, hash->partitioning(),
                                     in.ds.workload, kExecutor)
                      .weighted_ipt;
  }
  tr->End(s);
}

// ------------------------------------------------------- drive plumbing

/// Times every pull from the wrapped source as a span named `name`.
class TimedSource : public engine::EdgeSource {
 public:
  TimedSource(engine::EdgeSource* inner, const char* name, Tracer* tr)
      : inner_(inner), name_(name), tr_(tr) {}
  size_t NextBatch(std::span<stream::StreamEdge> out) override {
    if (!tr_->enabled()) return inner_->NextBatch(out);
    const int64_t t0 = NowNs();
    const size_t n = inner_->NextBatch(out);
    tr_->Add(name_, t0, NowNs(), parent);
    return n;
  }
  size_t SizeHint() const override { return inner_->SizeHint(); }
  void Reset() override { inner_->Reset(); }

  int parent = -1;

 private:
  engine::EdgeSource* inner_;
  const char* name_;
  Tracer* tr_;
};

/// Times the wrapped sink. Appends happen inside IngestBatch/Finalize, so
/// their time is accumulated and attached to the enclosing span by
/// TakeAppendNs(); Flush is a span of its own.
class TimedSink : public io::AssignmentSink {
 public:
  TimedSink(io::AssignmentSink* inner, Tracer* tr) : inner_(inner), tr_(tr) {}
  void Append(graph::VertexId v, graph::PartitionId p) override {
    if (!tr_->enabled()) {
      inner_->Append(v, p);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->Append(v, p);
    append_ns_ += NowNs() - t0;
  }
  void Flush() override {
    const int64_t t0 = NowNs();
    inner_->Flush();
    tr_->Add("io.sink", t0, NowNs(), parent);
  }
  int64_t TakeAppendNs() { return std::exchange(append_ns_, 0); }

  int parent = -1;

 private:
  io::AssignmentSink* inner_;
  Tracer* tr_;
  int64_t append_ns_ = 0;
};

/// Collects each IngestBatch's exact wall time and, when tracing, turns it
/// into an engine.ingest span with the sink appends it contained as a child
/// (recorded as one span of their summed duration at the batch's start).
class BatchRecorder : public engine::EngineObserver {
 public:
  BatchRecorder(Tracer* tr, TimedSink* sink) : tr_(tr), sink_(sink) {}
  void OnBatch(const engine::BatchEvent& e) override {
    batch_ns.push_back(static_cast<double>(e.ns));
    if (!tr_->enabled()) return;
    const int64_t end = NowNs();
    const int64_t start = end - static_cast<int64_t>(e.ns);
    const int span = tr_->Add("engine.ingest", start, end, parent);
    AttachAppends(span, start);
  }
  void AttachAppends(int span, int64_t start) {
    if (sink_ == nullptr) return;
    const int64_t ns = sink_->TakeAppendNs();
    if (ns > 0) tr_->Add("io.sink", start, start + ns, span);
  }

  std::vector<double> batch_ns;
  int parent = -1;

 private:
  Tracer* tr_;
  TimedSink* sink_;
};

/// What one drive + evaluation produced.
struct Rep {
  double drive_s = 0.0;
  double engine_ns = 0.0;  // sum of IngestBatch + Finish
  size_t batches = 0;
  std::vector<double> batch_ns;
  std::vector<double> evaluate_s;
  bool evaluations_agree = true;
  uint64_t checkpoint_bytes = 0;  // one checkpoint, traced drives only
  // Outputs that must repeat exactly.
  uint64_t hash = 0;
  uint64_t cut = 0;
  double imbalance = 0.0;
  double ipt = 0.0;
  double traversals = 0.0;
  bool fully_assigned = false;
  engine::RunReport report;
};

Rep Drive(const std::string& spec_string, const WorkloadSpec& spec,
          Inputs* in, const std::string& work_dir, Tracer* tr, int parent,
          bool evaluate) {
  Rep rep;
  const datasets::Dataset& ds = in->ds;
  int s = tr->Begin("session.create", parent);
  auto session = CreateSession(spec_string, ds);
  tr->End(s);

  std::unique_ptr<io::FileAssignmentSink> file_sink;
  std::unique_ptr<TimedSink> sink;
  if (spec.from_file) {
    file_sink =
        std::make_unique<io::FileAssignmentSink>(work_dir + "/assign.tsv");
    sink = std::make_unique<TimedSink>(file_sink.get(), tr);
    session->AddSink(sink.get());
  }
  BatchRecorder batches(tr, sink.get());
  session->AddObserver(&batches);
  in->source->Reset();
  TimedSource source(in->source.get(),
                     spec.from_file ? "io.read" : "stream.pull", tr);

  const int drive = tr->Begin("drive", parent);
  source.parent = batches.parent = drive;
  if (sink != nullptr) sink->parent = drive;
  const int64_t t0 = NowNs();
  session->IngestSome(source, SIZE_MAX);
  const int64_t f0 = NowNs();
  const int fin = tr->Begin("engine.finalize", drive);
  if (sink != nullptr) sink->parent = fin;
  rep.report = session->Finish();
  batches.AttachAppends(fin, f0);
  tr->End(fin);
  const int64_t t1 = NowNs();
  tr->End(drive);
  rep.drive_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.batch_ns = std::move(batches.batch_ns);
  rep.batches = rep.batch_ns.size();
  for (double ns : rep.batch_ns) rep.engine_ns += ns;
  rep.engine_ns += static_cast<double>(t1 - f0);

  // What one of the server's periodic checkpoints costs, taken on traced
  // drives only and outside the drive's time: checkpoint writes are fsynced
  // and would load the disk under every other measurement.
  if (spec.checkpoint_every > 0 && tr->enabled()) {
    const std::string ckpt = work_dir + "/offline.ckpt";
    const int c = tr->Begin("io.checkpoint", parent);
    std::string error;
    if (!engine::CheckpointSessionRotating(session.get(), ckpt, &error)) {
      throw std::runtime_error("checkpoint: " + error);
    }
    tr->End(c);
    rep.checkpoint_bytes = FileBytes(ckpt);
  }

  const partition::Partitioning& p = session->partitioning();
  rep.hash = partition::AssignmentHash(p, ds.NumVertices());
  rep.fully_assigned = partition::FullyAssigned(ds.graph, p);
  for (int i = 0; evaluate && i < kEvaluations; ++i) {
    const int e = tr->Begin("evaluate", parent);
    const int64_t e0 = NowNs();
    s = tr->Begin("query.eval", e);
    const query::WorkloadResult wr =
        query::RunWorkload(ds.graph, p, ds.workload, kExecutor);
    tr->End(s);
    s = tr->Begin("partition.metrics", e);
    const uint64_t cut = partition::EdgeCut(ds.graph, p);
    const double imbalance = partition::Imbalance(p);
    tr->End(s);
    rep.evaluate_s.push_back(static_cast<double>(NowNs() - e0) * 1e-9);
    tr->End(e);
    if (i > 0 && (cut != rep.cut || imbalance != rep.imbalance ||
                  wr.weighted_ipt != rep.ipt ||
                  wr.weighted_traversals != rep.traversals)) {
      rep.evaluations_agree = false;
    }
    rep.cut = cut;
    rep.imbalance = imbalance;
    rep.ipt = wr.weighted_ipt;
    rep.traversals = wr.weighted_traversals;
  }
  return rep;
}

/// The motif/core counters that must repeat exactly across drives.
std::vector<std::pair<std::string, uint64_t>> Counters(const Rep& r) {
  const engine::StatsObserver::Totals& t = r.report.events;
  auto out = r.report.backend_stats;
  out.emplace_back("evictions", t.evictions);
  out.emplace_back("empty_evictions", t.empty_cluster_evictions);
  out.emplace_back("cluster_decisions", t.cluster_decisions);
  out.emplace_back("fallback_decisions", t.fallback_decisions);
  out.emplace_back("cluster_edges_assigned", t.cluster_edges_assigned);
  out.emplace_back("edges_bypassed", t.last_progress.edges_bypassed);
  out.emplace_back("vertices_assigned", t.vertices_assigned);
  return out;
}

bool SameOutputs(const Rep& a, const Rep& b) {
  return a.hash == b.hash && a.cut == b.cut && a.imbalance == b.imbalance &&
         a.ipt == b.ipt && a.traversals == b.traversals &&
         Counters(a) == Counters(b);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) { return Summarize(std::move(v)).median; }

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "index\tname\tstart_ns\tend_ns\tparent\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    out << i << '\t' << spans[i].name << '\t'
        << spans[i].start_ns - origin << '\t' << spans[i].end_ns - origin
        << '\t' << spans[i].parent << '\n';
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a->seconds = std::stod(value);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == args.workload) spec = &w;
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  const int64_t run_start = NowNs();
  Tracer tr(args.trace);
  Ops ops;
  const std::string& dir = args.work_dir;

  // ----- setup, several times; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs.reset();  // release the previous copy first
    malloc_trim(0);  // ... and its pages, so the peak does not stack up
    inputs = std::make_unique<Inputs>();
    const int s = tr.Begin("setup", -1);
    const int64_t t0 = NowNs();
    Setup(*spec, args.seed, dir, &tr, s, inputs.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    tr.End(s);
  }
  Inputs& in = *inputs;

  // ----- the server comes up first and idles between its segments.
  ServeConfig sc;
  sc.serve_bin = LOOMBENCH_SERVE_BIN;
  sc.work_dir = dir;
  sc.stream_path = in.stream_path;
  sc.workload_path = in.workload_path;
  sc.rungs = spec->ladder;
  sc.checkpoint_every = spec->checkpoint_every;
  sc.num_vertices = in.ds.NumVertices();
  sc.seed = args.seed;
  if (!spec->from_file) {
    const int s = tr.Begin("serve.export", -1);
    in.source->Reset();
    ExportStream(in.ds, in.source.get(), sc.stream_path, sc.workload_path);
    tr.End(s);
  }
  ServeLeg serve(sc, &tr, &ops);
  serve.Start(-1);

  // ----- offline leg: drives until its share of the run is spent, with
  // the serve segments spread evenly between them.
  const double offline_budget = args.seconds * spec->offline_share;
  const size_t segments = spec->ladder.front().segments;
  const int offline = tr.Begin("offline", -1);
  const int64_t off0 = NowNs();
  std::vector<Rep> reps;            // untraced drives
  std::vector<Rep> traced;          // traced drives (--trace 1)
  std::vector<std::vector<double>> batch_ns;  // one row per untraced drive
  std::vector<double> eval_s;
  for (size_t i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    tr.set_enabled(trace_this);
    Rep r = Drive(kSubjectSpec, *spec, &in, dir, &tr, offline, true);
    tr.set_enabled(args.trace);
    const Rep& ref = reps.empty() ? r : reps.front();
    ops.Check(SameOutputs(r, ref),
              "drive " + std::to_string(i) + " outputs differ from drive 0");
    ops.Check(r.fully_assigned, "drive " + std::to_string(i) +
                                    " left a vertex unassigned");
    ops.Check(r.evaluations_agree, "drive " + std::to_string(i) +
                                       " evaluations disagree");
    if (trace_this) {
      traced.push_back(std::move(r));
    } else {
      batch_ns.push_back(r.batch_ns);
      eval_s.insert(eval_s.end(), r.evaluate_s.begin(), r.evaluate_s.end());
      reps.push_back(std::move(r));
    }
    const double spent = static_cast<double>(NowNs() - off0) * 1e-9;
    if (serve.segments_done() < segments &&
        spent >= offline_budget * static_cast<double>(serve.segments_done()) /
                     static_cast<double>(segments)) {
      serve.Segment(offline);
    }
    if (reps.size() >= 3 && (!args.trace || traced.size() >= 2) &&
        spent >= offline_budget) {
      break;
    }
  }
  std::vector<double> ldg_share;
  if (args.trace) {
    // The share of engine time above an LDG drive of the same stream:
    // admission, matcher, match list, window and bids (motif + core +
    // signature), which cannot be timed apart from outside IngestBatch.
    tr.set_enabled(false);
    for (int i = 0; i < 3; ++i) {
      const Rep loom = Drive(kSubjectSpec, *spec, &in, dir, &tr, offline,
                             false);
      const Rep ldg = Drive("ldg", *spec, &in, dir, &tr, offline, false);
      ldg_share.push_back(1.0 - ldg.engine_ns / loom.engine_ns);
    }
    tr.set_enabled(true);
  }
  tr.End(offline);
  const double rss_mb = PeakRssMb("self");

  // Every drive ingests the same batches (its outputs repeat exactly), so
  // batch i's time is taken as its fastest over the drives, as a best-of-N
  // timing: on a shared host, neighbours slow whole stretches of drives by a
  // third and more, in episodes of seconds, and the share of drives they hit
  // would otherwise set the percentiles.
  std::vector<double> batch_us = ElementwiseMin(batch_ns);
  ops.Check(!batch_us.empty(), "drives ingested different batch counts");
  for (double& t : batch_us) t *= 1e-3;

  const ServeResult sr = serve.Finish(-1);

  const Rep& r0 = reps.front();
  ops.Check(sr.served_edges == r0.report.edges,
            "served " + std::to_string(sr.served_edges) + " of " +
                std::to_string(r0.report.edges) + " edges");
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(r0.hash));
  ops.Check(sr.snapshot_hash == hex && sr.snapshot_cut == r0.cut,
            "served SNAPSHOT-QUALITY hash=" + sr.snapshot_hash + " cut=" +
                std::to_string(sr.snapshot_cut) + " != offline hash=" + hex +
                " cut=" + std::to_string(r0.cut));
  const double run_s = static_cast<double>(NowNs() - run_start) * 1e-9;

  // ----- metrics.
  const double edges = static_cast<double>(r0.report.edges);
  const Rung ref = sr.rungs.empty() ? Rung{} : sr.rungs.front();
  // Serve latencies at the reference rate: the median over its segments of
  // each segment's p50 and p99.
  auto over_segments = [&](double Latency::*q, Latency Rung::Segment::*what) {
    std::vector<double> v;
    for (const Rung::Segment& g : ref.segments) v.push_back(g.*what.*q);
    return Median(v);
  };
  using Seg = Rung::Segment;
  double drive_edges = 0.0, drive_s = 0.0;
  std::vector<double> drive_times;
  for (const Rep& r : reps) {
    drive_edges += static_cast<double>(r.report.edges);
    drive_s += r.drive_s;
    drive_times.push_back(r.drive_s);
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ingest_eps", drive_edges / drive_s, "edges/s"},
        {"batch_p50_us", NearestRank(&batch_us, 0.5), "us"},
        {"batch_p99_us", NearestRank(&batch_us, 0.99), "us"},
        {"evaluate_s", Median(eval_s), "s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"ipt_vs_hash", Ratio(r0.ipt, in.hash_ipt), "ratio"},
        {"edge_cut_frac", Ratio(static_cast<double>(r0.cut), edges), "frac"},
        {"imbalance", 1.0 + r0.imbalance, "max/mean"},
        {"serve_max_rate_eps", sr.max_rate, "edges/s"},
    };
  } else {
    const auto self = SelfTimeByName(tr.spans());
    auto ms = [&](const char* name, double units) {
      auto it = self.find(name);
      return it == self.end() ? 0.0
                              : static_cast<double>(it->second) * 1e-6 / units;
    };
    const double nt = static_cast<double>(traced.size());
    const Rep& t0 = traced.front();
    auto stat = [&](const char* name) {
      return static_cast<double>(t0.report.Stat(name));
    };
    const engine::StatsObserver::Totals& ev = t0.report.events;
    double accounted = 0.0;
    for (const auto& [name, ns] : self) accounted += static_cast<double>(ns);
    // Each traced drive ran right after an untraced one: compare in pairs.
    std::vector<double> overhead;
    for (size_t k = 0; k < traced.size() && k < reps.size(); ++k) {
      overhead.push_back(1.0 - reps[k].drive_s / traced[k].drive_s);
    }
    metrics = {
        {"datasets.generate_ms", ms("datasets.generate", kSetups), "ms"},
        {"stream.order_ms", ms("stream.order", kSetups), "ms"},
        {"io.export_ms", ms("io.export", kSetups), "ms"},
        {"graph.load_ms", ms("graph.load", kSetups), "ms"},
        {"tpstry.build_ms", ms("tpstry.build", kSetups), "ms"},
        {"tpstry.motifs", static_cast<double>(in.motifs), "count"},
        {"baseline.hash_ms", ms("baseline.hash", kSetups), "ms"},
        {"session.create_ms", ms("session.create", nt), "ms"},
        {"stream.pull_ms", ms("stream.pull", nt), "ms"},
        {"io.read_ms", ms("io.read", nt), "ms"},
        {"io.read_bytes", static_cast<double>(in.stream_bytes) *
                              (spec->from_file ? 1.0 : 0.0),
         "bytes"},
        {"io.sink_ms", ms("io.sink", nt), "ms"},
        {"io.checkpoint_ms", ms("io.checkpoint", nt), "ms"},
        {"io.checkpoint_bytes", static_cast<double>(t0.checkpoint_bytes),
         "bytes"},
        {"engine.ingest_ms", ms("engine.ingest", nt), "ms"},
        {"engine.finalize_ms", ms("engine.finalize", nt), "ms"},
        {"engine.batches", static_cast<double>(t0.batches), "count"},
        {"drive.loop_ms", ms("drive", nt), "ms"},
        {"ingest.above_ldg_frac", Median(ldg_share), "frac"},
        {"motif.admitted", stat("matcher_edges_admitted"), "count"},
        {"motif.extension_matches", stat("matcher_extension_matches"),
         "count"},
        {"motif.join_attempts", stat("matcher_join_attempts"), "count"},
        {"motif.join_yield",
         Ratio(stat("matcher_join_matches"), stat("matcher_join_attempts")),
         "frac"},
        {"motif.pool_reuse_frac",
         Ratio(stat("match_allocs_reused"),
               stat("match_allocs_reused") + stat("match_allocs_fresh")),
         "frac"},
        {"core.bypass_frac",
         Ratio(static_cast<double>(ev.last_progress.edges_bypassed), edges),
         "frac"},
        {"core.evictions", static_cast<double>(ev.evictions), "count"},
        {"core.empty_evictions",
         static_cast<double>(ev.empty_cluster_evictions), "count"},
        {"core.cluster_decisions", static_cast<double>(ev.cluster_decisions),
         "count"},
        {"core.fallback_frac",
         Ratio(static_cast<double>(ev.fallback_decisions),
               static_cast<double>(ev.cluster_decisions)),
         "frac"},
        {"core.edges_per_decision",
         Ratio(static_cast<double>(ev.cluster_edges_assigned),
               static_cast<double>(ev.cluster_decisions)),
         "edges"},
        {"query.eval_ms", ms("query.eval", nt * kEvaluations), "ms"},
        {"query.traversals", t0.traversals, "count"},
        {"query.ipt", t0.ipt, "count"},
        {"serve.ack_p50_us", over_segments(&Latency::p50, &Seg::ack_us), "us"},
        {"serve_ack_p99_us", over_segments(&Latency::p99, &Seg::ack_us), "us"},
        {"serve.get_p50_us", over_segments(&Latency::p50, &Seg::get_us), "us"},
        {"serve_get_p99_us", over_segments(&Latency::p99, &Seg::get_us), "us"},
        {"serve.lag_p50_ms", over_segments(&Latency::p50, &Seg::lag_ms), "ms"},
        {"serve_lag_p99_ms", over_segments(&Latency::p99, &Seg::lag_ms), "ms"},
        {"serve.queue_max", static_cast<double>(sr.queue_max), "edges"},
        {"serve.gen_late_p99_ms", ref.late_ms.p99, "ms"},
        {"serve.rss_mb", sr.server_rss_mb, "MiB"},
        {"trace.overhead_frac", Median(overhead), "frac"},
        {"trace.accounted_frac", accounted * 1e-9 / run_s, "frac"},
        {"error_frac",
         Ratio(static_cast<double>(ops.failed),
               static_cast<double>(ops.attempted)),
         "frac"},
    };
    WriteSpans(tr.spans(), dir + "/../traces/" + spec->name + ".spans.tsv");
  }

  const bool correct = ops.failed == 0;
  std::string metrics_json = "{";
  for (const Metric& m : metrics) {
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += Json(m.name) + ": {\"value\": " + Num(m.value) +
                    ", \"unit\": " + Json(m.unit) + "}";
  }
  metrics_json += "}";
  std::string errors = "[";
  for (const std::string& e : ops.errors) {
    errors += (errors.size() > 1 ? ", " : "") + Json(e);
  }
  errors += "]";
  std::string rungs = "[";
  for (const Rung& r : sr.rungs) {
    if (rungs.size() > 1) rungs += ", ";
    rungs += "{\"rate\": " + Num(r.rate) + ", \"achieved\": " +
             Num(r.achieved) + ", \"sent\": " + std::to_string(r.sent) +
             ", \"pass\": " + (r.pass ? "true" : "false") +
             ", \"backlog_end\": " + std::to_string(r.backlog_end) +
             ", \"ack_us\": " + SummaryJson(r.ack_us.summary) +
             ", \"get_us\": " + SummaryJson(r.get_us.summary) +
             ", \"lag_ms\": " + SummaryJson(r.lag_ms.summary) +
             ", \"late_ms\": " + SummaryJson(r.late_ms.summary) +
             ", \"segments\": [";
    for (size_t j = 0; j < r.segments.size(); ++j) {
      const Rung::Segment& g = r.segments[j];
      rungs += (j > 0 ? ", " : "") + std::string("{\"ack_us\": ") +
               SummaryJson(g.ack_us.summary) + ", \"get_us\": " +
               SummaryJson(g.get_us.summary) + ", \"lag_ms\": " +
               SummaryJson(g.lag_ms.summary) + "}";
    }
    rungs += "]}";
  }
  rungs += "]";
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(r0.hash));
  std::cout << "{\"record\": {\"workload\": " << Json(spec->name)
            << ", \"seed\": " << args.seed << ", \"seconds\": "
            << Num(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"fingerprint\": " << FingerprintJson()
            << ", \"edges\": " << r0.report.edges
            << ", \"drives\": " << reps.size() + traced.size()
            << ", \"quality\": {\"hash\": \"" << hash_hex
            << "\", \"cut\": " << r0.cut << ", \"imbalance\": "
            << Num(r0.imbalance) << ", \"ipt\": " << Num(r0.ipt)
            << ", \"hash_ipt\": " << Num(in.hash_ipt) << "}"
            << ", \"timings\": {\"setup_s\": " << SummaryJson(Summarize(setup_s))
            << ", \"drive_s\": " << SummaryJson(Summarize(drive_times))
            << ", \"batch_us\": " << SummaryJson(Summarize(batch_us))
            << ", \"evaluate_s\": " << SummaryJson(Summarize(eval_s)) << "}"
            << ", \"serve\": {\"rungs\": " << rungs << ", \"max_rate\": "
            << Num(sr.max_rate) << ", \"queue_max\": " << sr.queue_max
            << "}, \"errors\": " << errors << ", \"metrics\": "
            << metrics_json << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ops.attempted
            << ", \"failed\": " << ops.failed
            << ", \"metrics\": " << metrics_json << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace loombench

int main(int argc, char** argv) {
  loombench::Args args;
  try {
    if (!loombench::ParseArgs(argc, argv, &args)) {
      std::cerr << "usage: loombench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --work-dir DIR\n";
      return 2;
    }
    return loombench::Run(args);
  } catch (const std::exception& e) {
    std::cerr << "loombench: " << e.what() << "\n";
    return 1;
  }
}
