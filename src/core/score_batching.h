#ifndef GRALMATCH_CORE_SCORE_BATCHING_H_
#define GRALMATCH_CORE_SCORE_BATCHING_H_

/// \file score_batching.h
/// The one chunked batched-scoring routine every pipeline scoring site
/// (EntityGroupPipeline::Run, IncrementalPipeline mutations) goes through,
/// so batching policy lives in one place. See
/// docs/matchers.md "Batched inference".

#include <cstddef>

#include "common/span.h"
#include "data/ground_truth.h"
#include "data/record.h"
#include "matching/cascade_matcher.h"
#include "matching/matcher.h"
#include "obs/metrics.h"

namespace gralmatch {

class ThreadPool;

/// Score `pairs` against `records` into `out` (out.size() == pairs.size())
/// by slicing the pair list into contiguous chunks of at most `batch_size`
/// pairs, calling matcher.ScoreBatch once per chunk, and fanning the chunks
/// out across `pool` (serial when null).
///
/// Deterministic by construction: chunk boundaries depend only on
/// pairs.size() and batch_size, each chunk writes only its own out-slice,
/// and the ScoreBatch contract makes every chunking bitwise-identical to
/// per-pair scoring — so results are independent of both batch_size and
/// thread count. A batch_size of 0 is treated as 1. Exceptions from the
/// matcher propagate deterministically (lowest failing chunk first), which
/// the pipelines rely on for their poisoning semantics.
void ScorePairsBatched(ThreadPool* pool, const RecordTable& records,
                       const PairwiseMatcher& matcher,
                       Span<const RecordPair> pairs, size_t batch_size,
                       Span<double> out);

/// \brief RAII capture of CascadeMatcher gate/escalate activity across one
/// scoring region: records the stats() delta into the two obs counters on
/// destruction. Inert when either counter is null or the matcher is not a
/// CascadeMatcher (no dynamic_cast is even attempted in the null case), so
/// uninstrumented scoring pays one branch.
class CascadeStatsScope {
 public:
  CascadeStatsScope(const PairwiseMatcher& matcher,
                    obs::Counter* gate_resolved, obs::Counter* escalated)
      : gate_resolved_(gate_resolved), escalated_(escalated) {
    if (gate_resolved_ == nullptr && escalated_ == nullptr) return;
    cascade_ = dynamic_cast<const CascadeMatcher*>(&matcher);
    if (cascade_ != nullptr) before_ = cascade_->stats();
  }
  ~CascadeStatsScope() {
    if (cascade_ == nullptr) return;
    const CascadeMatcher::Stats after = cascade_->stats();
    if (gate_resolved_ != nullptr) {
      gate_resolved_->Increment(after.gate_resolved - before_.gate_resolved);
    }
    if (escalated_ != nullptr) {
      escalated_->Increment(after.escalated - before_.escalated);
    }
  }

  CascadeStatsScope(const CascadeStatsScope&) = delete;
  CascadeStatsScope& operator=(const CascadeStatsScope&) = delete;

 private:
  const CascadeMatcher* cascade_ = nullptr;
  obs::Counter* const gate_resolved_;
  obs::Counter* const escalated_;
  CascadeMatcher::Stats before_{};
};

}  // namespace gralmatch

#endif  // GRALMATCH_CORE_SCORE_BATCHING_H_
