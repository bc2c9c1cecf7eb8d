#include "trace.h"

#include <algorithm>
#include <utility>

namespace loombench {

int Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Begin(const std::string& name, int parent) {
  const int64_t now = NowNs();
  return Add(name, now, now, parent);
}

void Tracer::End(int span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = std::max<int64_t>(hi - lo - covered, 0);
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

}  // namespace loombench
