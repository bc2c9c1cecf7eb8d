// Shared types of loombench: the run's operation ledger and the service
// leg's interface.
#ifndef LOOMBENCH_BENCH_H_
#define LOOMBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace loombench {

/// Every operation the run attempts, and the ones that failed: an ERR or
/// lost reply, or an output check that did not hold. error_frac is
/// failed / attempted.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions

  void Check(bool ok, const std::string& what);
};

/// How the service leg is driven.
struct ServeConfig {
  std::string serve_bin;     // loom_serve executable
  std::string work_dir;      // holds the socket, stream and checkpoint files
  std::string stream_path;   // LOOMES file: the served edge sequence
  std::string workload_path;
  /// The ladder, ascending. Rung 0 is the reference rate: its latencies are
  /// reported as the median over its segments of each segment's p50/p99.
  struct RungSpec {
    double rate;      // offered, edges/s
    double seconds;   // one segment's scheduled length
    size_t segments;  // stretches served at this rate, each drained after
  };
  std::vector<RungSpec> rungs;
  uint64_t checkpoint_every = 0;
  uint64_t num_vertices = 0;  // GET draws vertex ids below this
  uint64_t seed = 0;
};

struct Rung {
  double rate = 0.0;      // offered, edges/s
  double achieved = 0.0;  // acknowledged INGEST lines / rung time
  uint64_t sent = 0;
  Latency ack_us;   // reply time minus the line's scheduled send time
  Latency get_us;   // GET round trip
  Latency lag_ms;   // line due -> first STATS edges= that covers it
  Latency late_ms;  // how late the generator sent each line
  uint64_t backlog_end = 0;  // sent - decided when the rung's acks are in
  bool pass = false;
  struct Segment {
    Latency ack_us, get_us, lag_ms;
  };
  std::vector<Segment> segments;  // one per scheduled stretch
};

struct ServeResult {
  std::vector<Rung> rungs;
  double max_rate = 0.0;     // achieved rate of the highest passing rung
  uint64_t queue_max = 0;    // highest STATS queue= seen
  double server_rss_mb = 0.0;
  uint64_t served_edges = 0;
  std::string snapshot_hash;  // SNAPSHOT-QUALITY hash= after FINALIZE
  uint64_t snapshot_cut = 0;
};

class ServeLegImpl;

/// loom_serve on the config's stream, driven by one open-loop INGEST
/// connection and one closed-loop GET/STATS reader. Start() brings the
/// server up; each Segment() serves rung 0's rate for one segment (the
/// caller interleaves them with other work, so a few seconds of host noise
/// cannot sway the median over segments); Finish() runs the higher rungs,
/// serves the rest of the stream, finalizes, snapshots the quality and
/// shuts the server down. Failures are recorded in `ops`. The destructor
/// stops every thread and reaps the server on every path.
class ServeLeg {
 public:
  ServeLeg(const ServeConfig& config, Tracer* tracer, Ops* ops);
  ~ServeLeg();
  ServeLeg(const ServeLeg&) = delete;
  ServeLeg& operator=(const ServeLeg&) = delete;

  bool Start(int parent);
  void Segment(int parent);
  size_t segments_done() const;
  ServeResult Finish(int parent);

 private:
  std::unique_ptr<ServeLegImpl> impl_;
};

/// Peak resident set of process `pid` ("self" for this one), MiB; 0 when
/// unreadable.
double PeakRssMb(const std::string& pid);

}  // namespace loombench

#endif  // LOOMBENCH_BENCH_H_
