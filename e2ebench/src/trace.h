#ifndef GRALMATCH_E2EBENCH_TRACE_H_
#define GRALMATCH_E2EBENCH_TRACE_H_

/// \file trace.h
/// In-memory span recorder for the benchmark's traced mode. The driver opens
/// a Span around every call it makes into a layer of the program; each span
/// keeps its name, start, end and parent (the span open on the same thread
/// when it began). Spans stay in memory until the run ends, when
/// Summarize() folds them into per-layer total and self time — self time
/// being a span's duration minus the part its child spans cover.

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace e2ebench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
  };

  /// Per-name aggregate of closed spans.
  struct LayerTime {
    std::string name;
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span; `name` must outlive the tracer (string literals).
  int64_t Begin(const char* name) EXCLUDES(mu_);
  void End(int64_t id) EXCLUDES(mu_);

  /// Aggregates by span name, sorted by name.
  std::vector<LayerTime> Summarize() const EXCLUDES(mu_);

 private:
  mutable gralmatch::Mutex mu_;
  std::vector<Record> spans_ GUARDED_BY(mu_);
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* const tracer_;
  const int64_t id_;
};

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_TRACE_H_
