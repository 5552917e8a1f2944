#include "trace.h"

#include <algorithm>
#include <chrono>
#include <map>

namespace e2ebench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans open on this thread, innermost last. Spans nest strictly per
/// thread (they are scoped objects), so the top is the parent of the next.
thread_local std::vector<int64_t> open_spans;

}  // namespace

int64_t Tracer::Begin(const char* name) {
  Record record;
  record.name = name;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  int64_t id = 0;
  {
    gralmatch::MutexLock lock(&mu_);
    id = static_cast<int64_t>(spans_.size());
    record.start_ns = NowNs();
    spans_.push_back(record);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  open_spans.pop_back();
  gralmatch::MutexLock lock(&mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Tracer::LayerTime> Tracer::Summarize() const {
  gralmatch::MutexLock lock(&mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    LayerTime& layer = by_name[span.name];
    layer.name = span.name;
    layer.count += 1;
    const int64_t total = span.end_ns - span.start_ns;
    layer.total_s += static_cast<double>(total) * 1e-9;
    layer.self_s +=
        static_cast<double>(std::max<int64_t>(0, total - child_ns[i])) * 1e-9;
  }
  std::vector<LayerTime> out;
  out.reserve(by_name.size());
  for (auto& [name, layer] : by_name) out.push_back(std::move(layer));
  return out;
}

}  // namespace e2ebench
