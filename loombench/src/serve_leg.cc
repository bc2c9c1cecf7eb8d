// The service leg: loom_serve in a child process, one open-loop INGEST
// connection driven at a ladder of fixed rates, and one closed-loop reader
// connection issuing GETs (100 us think time between a reply and the next
// request) with a STATS sample every 0.4 ms.
//
// Open loop: line i of a rung is due at t0 + i / rate whether or not the
// server kept up, and its latency is measured from that due time, so a
// stall is charged to every line it delayed. The generator sends whatever
// is due at most every kTickNs, and records how late each line went out.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "io/edge_stream_io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace loombench {

namespace {

using loom::serve::Client;

constexpr int64_t kTickNs = 50'000;           // generator send granularity
constexpr int64_t kStatsEveryNs = 400'000;    // reader's STATS cadence
constexpr int64_t kThinkNs = 100'000;         // reader's pause between GETs
// A rung passes at ack p99 <= this. Acks wait only for queue admission, so
// an overloaded service (full queue) answers in hundreds of ms, while host
// CPU steal alone stays well below this.
constexpr double kAckLimitUs = 100'000;
constexpr double kBacklogLimit = 0.10;        // of the rung's lines
constexpr int64_t kWaitNs = 30'000'000'000;   // drain / ack / exit timeouts

uint64_t ParseField(const std::string& reply, const char* key) {
  const size_t at = reply.find(key);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(reply.c_str() + at + std::strlen(key), nullptr, 10);
}

/// loom_serve as a child process; the destructor kills and reaps it if it
/// is still running, so no exit path leaves it behind.
class ServerProcess {
 public:
  explicit ServerProcess(const ServeConfig& c) {
    std::vector<std::string> args = {
        c.serve_bin,  "--socket", "s.sock",      "--workload",
        "workload.lw", "--like",  "stream.les", "--k",
        "8",          "--window", "10000"};
    if (c.checkpoint_every > 0) {
      args.insert(args.end(), {"--checkpoint", "serve.ckpt",
                               "--checkpoint-every",
                               std::to_string(c.checkpoint_every)});
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = c.work_dir + "/serve.log";
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive the benchmark, even a killed one.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) ::dup2(fd, 2);
      if (::chdir(c.work_dir.c_str()) != 0) ::_exit(127);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() {
    if (pid_ > 0 && !Wait(0)) {
      ::kill(pid_, SIGKILL);
      Wait(kWaitNs);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool running() {
    if (pid_ <= 0) return false;
    return ::waitpid(pid_, &status_, WNOHANG) == 0;
  }
  /// Reaps the child within `timeout_ns`; true once it has exited.
  bool Wait(int64_t timeout_ns) {
    const int64_t deadline = NowNs() + timeout_ns;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
      if (r == pid_ || r < 0) {
        pid_ = -1;
        return true;
      }
      if (NowNs() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  bool exited_cleanly() const {
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
};

/// A raw connection for the INGEST stream: the writer and the reply reader
/// use its two directions from two threads.
class RawConn {
 public:
  RawConn() = default;
  ~RawConn() { Close(); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  bool SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  int fd() const { return fd_; }
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
};

struct StatsSample {
  int64_t t = 0;          // when the reply arrived
  uint64_t decided = 0;   // STATS edges=
  uint64_t queue = 0;     // STATS queue=
};

struct GetSample {
  int64_t t = 0;
  double us = 0.0;
};

/// State shared by the writer (this thread), the reply reader and the GET
/// reader. `due` and `ack_ns` are indexed by line; `sent` publishes `due`.
struct Shared {
  std::vector<int64_t> due;
  std::vector<int64_t> ack_ns;
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> bad_replies{0};
  std::atomic<bool> stop_reader{false};
  std::atomic<bool> reader_active{false};  // GET/STATS only while serving

  // Handed over by the GET reader when it exits (the join orders it).
  std::vector<StatsSample> stats;
  std::vector<GetSample> gets;
  uint64_t get_ops = 0, get_bad = 0;
};

void ReplyReader(RawConn* conn, Shared* sh, uint64_t total) {
  loom::serve::LineFramer framer;
  std::string line;
  std::vector<char> buf(1 << 16);
  uint64_t j = 0;
  while (j < total) {
    const ssize_t n = ::recv(conn->fd(), buf.data(), buf.size(), 0);
    if (n <= 0) break;
    const int64_t t = NowNs();
    framer.Feed(std::string_view(buf.data(), static_cast<size_t>(n)));
    const uint64_t published = sh->sent.load(std::memory_order_acquire);
    while (framer.Next(&line) == loom::serve::LineFramer::Result::kLine) {
      if (j >= published) break;  // a reply to a line never sent
      sh->ack_ns[j] = t - sh->due[j];
      if (line != "OK queued") sh->bad_replies.fetch_add(1);
      ++j;
    }
    sh->acked.store(j, std::memory_order_release);
  }
}

void GetReader(Client* client, Shared* sh, uint64_t num_vertices,
               uint64_t seed) {
  prctl(PR_SET_TIMERSLACK, 1UL);
  loom::util::Rng rng(seed ^ 0x6e7);
  std::string reply, error;
  int64_t next_stats = NowNs();
  std::vector<StatsSample> stats;
  std::vector<GetSample> gets;
  uint64_t ops = 0, bad = 0;
  while (!sh->stop_reader.load(std::memory_order_acquire)) {
    if (!sh->reader_active.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      next_stats = NowNs();
      continue;
    }
    const int64_t t0 = NowNs();
    if (t0 >= next_stats) {
      next_stats = t0 + kStatsEveryNs;
      ++ops;
      if (!client->Roundtrip("STATS", &reply, &error) ||
          !loom::serve::IsOk(reply)) {
        ++bad;
        if (!client->connected()) break;
        continue;
      }
      stats.push_back({NowNs(), ParseField(reply, "edges="),
                       ParseField(reply, "queue=")});
      continue;
    }
    const uint64_t v = rng.Uniform(num_vertices);
    ++ops;
    if (!client->Roundtrip("GET " + std::to_string(v), &reply, &error) ||
        !loom::serve::IsOk(reply)) {
      ++bad;
      if (!client->connected()) break;
      continue;
    }
    const int64_t t1 = NowNs();
    gets.push_back({t0, static_cast<double>(t1 - t0) * 1e-3});
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(std::min(t1 + kThinkNs, next_stats))));
  }
  sh->stats = std::move(stats);
  sh->gets = std::move(gets);
  sh->get_ops = ops;
  sh->get_bad = bad;
}

/// Appends "INGEST u v lu lv\n" for `e`.
void AppendIngest(const loom::stream::StreamEdge& e, std::string* out) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof(buf), "INGEST %u %u %u %u\n",
                              static_cast<unsigned>(e.u),
                              static_cast<unsigned>(e.v),
                              static_cast<unsigned>(e.label_u),
                              static_cast<unsigned>(e.label_v));
  out->append(buf, static_cast<size_t>(n));
}

bool WaitFor(const std::atomic<uint64_t>& counter, uint64_t target) {
  const int64_t deadline = NowNs() + kWaitNs;
  while (counter.load(std::memory_order_acquire) < target) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// One scheduled stretch at a fixed rate: its lines and time window.
struct Stretch {
  uint64_t base = 0, lines = 0;
  int64_t t0 = 0, t1 = 0;  // t1: all its acks are in
  int64_t t_drained = 0;   // every line decided
  uint64_t backlog_end = 0;
  std::vector<double> late_ms;
};

}  // namespace

class ServeLegImpl {
 public:
  ServeLegImpl(const ServeConfig& c, Tracer* tr, Ops* ops)
      : c_(c), tr_(tr), ops_(ops), source_(c.stream_path) {
    total_ = source_.info().edge_count;
    sh_.due.assign(total_, 0);
    sh_.ack_ns.assign(total_, 0);
    stretches_.resize(c.rungs.size());
  }

  ~ServeLegImpl() { StopThreads(); }

  bool Start(int parent) {
    const std::string sock = c_.work_dir + "/s.sock";
    ::unlink(sock.c_str());
    const int span = tr_->Begin("serve.start", parent);
    server_ = std::make_unique<ServerProcess>(c_);
    bool up = false;
    const int64_t deadline = NowNs() + kWaitNs;
    while (!up && NowNs() < deadline && server_->running()) {
      up = ingest_.Connect(sock);
      if (!up) {
        ingest_.Close();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    up = up && reader_.Connect(sock, &error_) &&
         control_.Connect(sock, &error_);
    tr_->End(span);
    ops_->Check(up, "loom_serve did not come up (see " + c_.work_dir +
                        "/serve.log)");
    if (!up) return false;
    replies_ = std::thread(ReplyReader, &ingest_, &sh_, total_);
    getter_ = std::thread(GetReader, &reader_, &sh_, c_.num_vertices,
                          c_.seed);
    ok_ = true;
    return true;
  }

  void Segment(int parent) {
    if (!ok_ || stretches_.empty() ||
        stretches_[0].size() >= c_.rungs[0].segments) {
      return;
    }
    const int span = tr_->Begin("serve.segment", parent);
    stretches_[0].push_back(Run(c_.rungs[0]));
    tr_->End(span);
  }

  size_t segments_done() const {
    return stretches_.empty() ? 0 : stretches_[0].size();
  }

  ServeResult Finish(int parent) {
    ServeResult res;
    if (!ok_) return res;
    while (ok_ && segments_done() < c_.rungs[0].segments) Segment(parent);
    // Rung 0 must pass for the ladder to go on; the higher rungs run once.
    int span = tr_->Begin("serve.ladder", parent);
    res.rungs.push_back(SummarizeRung(0));
    for (size_t k = 1; k < c_.rungs.size() && ok_ && res.rungs.back().pass;
         ++k) {
      for (size_t j = 0; j < c_.rungs[k].segments && ok_; ++j) {
        stretches_[k].push_back(Run(c_.rungs[k]));
      }
      res.rungs.push_back(SummarizeRung(k));
    }
    tr_->End(span);

    span = tr_->Begin("serve.flush", parent);
    Flush();
    tr_->End(span);
    StopThreads();
    ops_->attempted += sent_ + sh_.get_ops;
    const uint64_t acked = sh_.acked.load();
    ops_->failed += sh_.bad_replies.load() + (sent_ - std::min(sent_, acked)) +
                    sh_.get_bad;
    ops_->Check(sh_.bad_replies.load() == 0 && acked == sent_,
                "INGEST: " + std::to_string(sh_.bad_replies.load()) +
                    " ERR replies, " + std::to_string(sent_ - acked) +
                    " lost");
    res.served_edges = sent_;
    AttachReaderSamples(&res);

    span = tr_->Begin("serve.check", parent);
    std::string reply;
    bool ok = ok_ && control_.Roundtrip("FINALIZE", &reply, &error_) &&
              loom::serve::IsOk(reply);
    ops_->Check(ok, "FINALIZE: " + reply + error_);
    ok = ok && control_.Roundtrip("SNAPSHOT-QUALITY", &reply, &error_) &&
         loom::serve::IsOk(reply);
    ops_->Check(ok, "SNAPSHOT-QUALITY: " + reply + error_);
    if (ok) {
      const size_t at = reply.find("hash=");
      res.snapshot_hash = reply.substr(at + 5, 16);
      res.snapshot_cut = ParseField(reply, "cut=");
    }
    res.server_rss_mb = PeakRssMb(std::to_string(server_->pid()));
    tr_->End(span);
    span = tr_->Begin("serve.stop", parent);
    ok = control_.Roundtrip("SHUTDOWN", &reply, &error_) &&
         loom::serve::IsOk(reply);
    ops_->Check(ok, "SHUTDOWN: " + reply + error_);
    reader_.Close();
    control_.Close();
    ops_->Check(server_->Wait(kWaitNs) && server_->exited_cleanly(),
                "loom_serve did not exit cleanly");
    tr_->End(span);
    return res;
  }

 private:
  const loom::stream::StreamEdge* Pull() {
    if (next_ == have_) {
      have_ = source_.NextBatch(edges_);
      next_ = 0;
      if (have_ == 0) return nullptr;
    }
    return &edges_[next_++];
  }

  bool Stats(uint64_t* decided) {
    std::string reply;
    ++ops_->attempted;
    if (!control_.Roundtrip("STATS", &reply, &error_) ||
        !loom::serve::IsOk(reply)) {
      ++ops_->failed;
      return false;
    }
    *decided = ParseField(reply, "edges=");
    return true;
  }

  /// Sends `spec.rate * spec.seconds` lines on schedule, waits for their
  /// acks, records the backlog, then drains it.
  Stretch Run(const ServeConfig::RungSpec& spec) {
    Stretch st;
    st.lines = static_cast<uint64_t>(spec.rate * spec.seconds);
    st.base = sent_;
    if (sent_ + st.lines > total_) {
      ops_->Check(false, "stream too short for the ladder");
      ok_ = false;
      return st;
    }
    sh_.reader_active.store(true, std::memory_order_release);
    prctl(PR_SET_TIMERSLACK, 1UL);
    st.t0 = NowNs() + kTickNs;
    const double ns_per_line = 1e9 / spec.rate;
    st.late_ms.reserve(st.lines);
    int64_t wake = st.t0;
    while (sent_ < st.base + st.lines) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wake)));
      const int64_t now = NowNs();
      const uint64_t due_count = std::min<uint64_t>(
          st.lines, static_cast<uint64_t>(static_cast<double>(now - st.t0) /
                                          ns_per_line) + 1);
      buf_.clear();
      const uint64_t from = sent_;
      while (sent_ < st.base + due_count) {
        const loom::stream::StreamEdge* e = Pull();
        if (e == nullptr) break;
        const int64_t due =
            st.t0 + static_cast<int64_t>(
                        static_cast<double>(sent_ - st.base) * ns_per_line);
        sh_.due[sent_] = due;
        st.late_ms.push_back(static_cast<double>(now - due) * 1e-6);
        AppendIngest(*e, &buf_);
        ++sent_;
      }
      if (sent_ == from) break;  // stream ran dry
      sh_.sent.store(sent_, std::memory_order_release);
      if (!ingest_.SendAll(buf_)) {
        ok_ = false;
        break;
      }
      const int64_t next_due =
          st.t0 + static_cast<int64_t>(
                      static_cast<double>(sent_ - st.base) * ns_per_line);
      wake = std::max(next_due, now + kTickNs);
    }
    ok_ = ok_ && WaitFor(sh_.acked, sent_);
    st.t1 = NowNs();
    uint64_t decided = 0;
    ok_ = ok_ && Stats(&decided);
    st.backlog_end = decided <= sent_ ? sent_ - decided : 0;
    // Drain so the next stretch, or the caller's work, starts from an
    // idle server.
    const int64_t deadline = NowNs() + kWaitNs;
    while (ok_ && decided < sent_ && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ok_ = Stats(&decided);
    }
    st.t_drained = NowNs();
    // One more reader sample after the drain covers the last edges.
    std::this_thread::sleep_for(std::chrono::nanoseconds(2 * kStatsEveryNs));
    sh_.reader_active.store(false, std::memory_order_release);
    ops_->Check(decided >= sent_, "serve backlog did not drain");
    return st;
  }

  /// Rung `k` from its stretches: ack and lateness over all its lines.
  Rung SummarizeRung(size_t k) {
    Rung r;
    r.rate = c_.rungs[k].rate;
    std::vector<double> ack, late;
    double busy_s = 0.0;
    uint64_t worst_backlog = 0;
    for (Stretch& st : stretches_[k]) {
      r.sent += st.lines;
      busy_s += static_cast<double>(st.t1 - st.t0) * 1e-9;
      worst_backlog = std::max(worst_backlog, st.backlog_end);
      for (uint64_t j = st.base; j < st.base + st.lines; ++j) {
        ack.push_back(static_cast<double>(sh_.ack_ns[j]) * 1e-3);
      }
      late.insert(late.end(), st.late_ms.begin(), st.late_ms.end());
    }
    r.achieved = busy_s > 0 ? static_cast<double>(r.sent) / busy_s : 0.0;
    r.backlog_end = worst_backlog;
    r.ack_us = Measure(std::move(ack));
    r.late_ms = Measure(std::move(late));
    const double per_stretch =
        c_.rungs[k].rate * c_.rungs[k].seconds;
    r.pass = ok_ && !stretches_[k].empty() && r.ack_us.p99 <= kAckLimitUs &&
             static_cast<double>(worst_backlog) <= kBacklogLimit * per_stretch;
    return r;
  }

  /// Sends the rest of the stream as fast as the server takes it.
  void Flush() {
    while (ok_) {
      buf_.clear();
      const uint64_t from = sent_;
      const int64_t now = NowNs();
      while (sent_ - from < 4096) {
        const loom::stream::StreamEdge* e = Pull();
        if (e == nullptr) break;
        sh_.due[sent_] = now;
        AppendIngest(*e, &buf_);
        ++sent_;
      }
      if (sent_ == from) break;
      sh_.sent.store(sent_, std::memory_order_release);
      ok_ = ingest_.SendAll(buf_);
    }
    ok_ = ok_ && WaitFor(sh_.acked, sent_);
  }

  /// GET and lag samples by stretch; each stretch is one segment.
  void AttachReaderSamples(ServeResult* res) {
    for (const StatsSample& s : sh_.stats) {
      res->queue_max = std::max(res->queue_max, s.queue);
    }
    for (size_t k = 0; k < res->rungs.size(); ++k) {
      Rung& r = res->rungs[k];
      std::vector<double> gets, lags;
      for (const Stretch& st : stretches_[k]) {
        std::vector<double> seg_gets, seg_lags, seg_ack;
        for (const GetSample& g : sh_.gets) {
          if (g.t >= st.t0 && g.t < st.t1) seg_gets.push_back(g.us);
        }
        // Decision lag per line: from when it was due to the first STATS
        // reply whose edges= cursor covers it (cursors only grow).
        size_t p = 0;
        while (p < sh_.stats.size() && sh_.stats[p].t < st.t0) ++p;
        for (uint64_t j = st.base; j < st.base + st.lines; ++j) {
          while (p < sh_.stats.size() && sh_.stats[p].decided <= j) ++p;
          const int64_t t =
              p < sh_.stats.size() ? sh_.stats[p].t : st.t_drained;
          seg_lags.push_back(static_cast<double>(t - sh_.due[j]) * 1e-6);
        }
        for (uint64_t j = st.base; j < st.base + st.lines; ++j) {
          seg_ack.push_back(static_cast<double>(sh_.ack_ns[j]) * 1e-3);
        }
        gets.insert(gets.end(), seg_gets.begin(), seg_gets.end());
        lags.insert(lags.end(), seg_lags.begin(), seg_lags.end());
        r.segments.push_back({Measure(std::move(seg_ack)),
                              Measure(std::move(seg_gets)),
                              Measure(std::move(seg_lags))});
      }
      r.get_us = Measure(std::move(gets));
      r.lag_ms = Measure(std::move(lags));
      if (r.pass) res->max_rate = r.achieved;
    }
  }

  void StopThreads() {
    sh_.stop_reader.store(true, std::memory_order_release);
    if (getter_.joinable()) getter_.join();
    if (replies_.joinable()) {
      ingest_.ShutdownWrite();
      replies_.join();
    }
  }

  const ServeConfig& c_;
  Tracer* tr_;
  Ops* ops_;
  loom::io::FileEdgeSource source_;
  uint64_t total_ = 0;
  std::unique_ptr<ServerProcess> server_;
  RawConn ingest_;
  Client reader_, control_;
  std::string error_;
  Shared sh_;
  bool ok_ = false;
  std::vector<loom::stream::StreamEdge> edges_ =
      std::vector<loom::stream::StreamEdge>(4096);
  size_t have_ = 0, next_ = 0;
  uint64_t sent_ = 0;
  std::string buf_;
  std::vector<std::vector<Stretch>> stretches_;  // per rung
  // Declared last: joined (by StopThreads) before the members they use go.
  std::thread replies_, getter_;
};

ServeLeg::ServeLeg(const ServeConfig& c, Tracer* tr, Ops* ops)
    : impl_(std::make_unique<ServeLegImpl>(c, tr, ops)) {}
ServeLeg::~ServeLeg() = default;
bool ServeLeg::Start(int parent) { return impl_->Start(parent); }
void ServeLeg::Segment(int parent) { impl_->Segment(parent); }
size_t ServeLeg::segments_done() const { return impl_->segments_done(); }
ServeResult ServeLeg::Finish(int parent) { return impl_->Finish(parent); }

}  // namespace loombench
