// In-memory span recording for the traced run.
//
// Spans are taken from the benchmark's side of each layer boundary (around
// the calls it makes into loom_core and the service), kept in memory and
// written out once the run ends. A layer's self time is its spans' duration
// minus the part of each span's interval that its child spans cover.
#ifndef LOOMBENCH_TRACE_H_
#define LOOMBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace loombench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
};

/// Collects spans when enabled; every call is a no-op (returning -1) when
/// not, so untraced code paths pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records a finished span and returns its index.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent);

  /// Opens a span ending at End(); returns its index.
  int Begin(const std::string& name, int parent);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span, in the order given: its duration minus the
/// union of its direct children's intervals clipped to its own.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Sum of self times per span name, nanoseconds.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

}  // namespace loombench

#endif  // LOOMBENCH_TRACE_H_
