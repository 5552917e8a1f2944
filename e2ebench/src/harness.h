#ifndef GRALMATCH_E2EBENCH_HARNESS_H_
#define GRALMATCH_E2EBENCH_HARNESS_H_

/// \file harness.h
/// Types shared by the workloads and the driver's main: the run options,
/// what a workload reports back, and small timing/statistics helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "stream/incremental_pipeline.h"
#include "trace.h"

namespace e2ebench {

/// One workload-specific figure, printed as a `figure` line.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Work counters a run sums from the program's own reports (IngestReport,
/// CleanupStats) while it runs; printed in traced mode.
struct LayerCounts {
  uint64_t cache_hits = 0;
  uint64_t cache_evictions = 0;
  uint64_t components_rebuilt = 0;
  uint64_t components_reused = 0;
  uint64_t candidates_added = 0;
  uint64_t candidates_removed = 0;
  uint64_t pairs_scored = 0;
  /// From the last snapshot of the workload's pipeline.
  uint64_t min_cut_calls = 0;
  uint64_t betweenness_calls = 0;
  uint64_t edges_removed = 0;
  uint64_t largest_component = 0;

  void Add(const gralmatch::IngestReport& report);
  void SetCleanup(const gralmatch::PipelineResult& result);
};

/// What one pass of a workload hands back.
struct RunResult {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double group_f1 = 0.0;
  /// Peak resident set in MB, read by the workload where its own checks
  /// cannot have raised it.
  double peak_rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness violations; the run is correct when this stays empty.
  std::vector<std::string> errors;
  std::vector<Figure> figures;
  /// Free-form lines printed before the result (e.g. a failed op's error).
  std::vector<std::string> notes;
  LayerCounts layers;

  void Fail(const std::string& what) { errors.push_back(what); }
};

/// What a workload pass is given.
struct Context {
  uint64_t seed = 1;
  /// Length of the timed part; whole rounds run until it has passed.
  double seconds = 10.0;
  /// Set-up repetitions (their median is setup_s).
  int setup_reps = 3;
  /// Both null in the untraced run.
  gralmatch::obs::MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Directory (inside the checkout) for files the workload writes.
  std::string scratch_dir;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 for an empty input).
double Median(std::vector<double> values);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Workload entry points.
void RunSecuritiesStream(const Context& ctx, RunResult* out);
void RunCompaniesTransformer(const Context& ctx, RunResult* out);

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_HARNESS_H_
