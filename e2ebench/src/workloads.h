#ifndef GRALMATCH_E2EBENCH_WORKLOADS_H_
#define GRALMATCH_E2EBENCH_WORKLOADS_H_

/// \file workloads.h
/// Pieces the workloads share: the securities fixture and configuration
/// (securities_stream), and the driver's calls into the
/// program. Each call counts one attempted operation, counts it failed when
/// it returns an error, and runs inside a span named after its layer.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/record.h"
#include "harness.h"
#include "matching/matcher.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"

namespace e2ebench {

/// ~4.5 records per group: ~18 k securities records.
constexpr size_t kSecuritiesGroups = 4000;

/// A run cycles through this many fixtures, all generated from --seed, and
/// ends after whole passes over them. How much work one fixture costs
/// varies by up to ~1.5x from seed to seed, so a run measures several.
constexpr size_t kFixturesPerRun = 3;

/// Generator seed of fixture `k` of a run with seed `seed`; clear of the
/// fixed seeds the workloads use for training and the probe.
inline uint64_t FixtureSeed(uint64_t seed, size_t k) {
  return 1000 + seed * kFixturesPerRun + k;
}

struct SecuritiesFixture {
  uint64_t seed = 0;
  std::vector<gralmatch::Record> records;
  /// Ground-truth entity per record (the generator's truth).
  std::vector<gralmatch::EntityId> entity_of;
};

/// FinancialGenerator's securities table at `groups` groups.
SecuritiesFixture MakeSecuritiesFixture(uint64_t seed, size_t groups,
                                        Tracer* tracer);

/// ID + token blocking (top_n 5), gamma 25, mu 5, pre-cleanup 50, one
/// pipeline thread.
gralmatch::IncrementalPipelineConfig SecuritiesConfig(
    gralmatch::obs::MetricsRegistry* metrics);

/// Ingest `batch`, then Snapshot and Publish (three operations). Returns
/// false, with the failure recorded, when one of them fails.
bool IngestSnapshotPublish(const Context& ctx,
                           gralmatch::IncrementalPipeline* pipeline,
                           gralmatch::MatchService* service,
                           const std::vector<gralmatch::Record>& batch,
                           const gralmatch::PairwiseMatcher& matcher,
                           RunResult* out);

/// Snapshot and Publish (two operations).
bool SnapshotPublish(const Context& ctx,
                     const gralmatch::IncrementalPipeline& pipeline,
                     gralmatch::MatchService* service, RunResult* out);

/// In-memory checkpoint save (one operation). A failure is recorded.
gralmatch::Result<std::string> SaveImage(
    const Context& ctx, const gralmatch::IncrementalPipeline& pipeline,
    RunResult* out);

/// In-memory checkpoint load (one operation, counted failed on error). The
/// caller decides whether a failure is also a correctness error.
gralmatch::Result<std::unique_ptr<gralmatch::IncrementalPipeline>> LoadImage(
    const Context& ctx, const std::string& image,
    const gralmatch::PairwiseMatcher& matcher, RunResult* out);

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_WORKLOADS_H_
