#ifndef GRALMATCH_E2EBENCH_CHECKS_H_
#define GRALMATCH_E2EBENCH_CHECKS_H_

/// \file checks.h
/// Output checks of the benchmark. Each compares the program's result with
/// a computation or a property kept apart from the code path under test:
/// a from-scratch batch run, the driver's own union-find, the generator's
/// ground truth, or the matcher rescored pair by pair.

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/record.h"
#include "harness.h"
#include "matching/matcher.h"
#include "net/wire.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"

namespace e2ebench {

/// From-scratch EntityGroupPipeline::Run (with the batch blockers the
/// incremental config names) on the live records of `records`, compacted
/// in id order and remapped back through that monotone map.
gralmatch::PipelineResult SurvivorReference(
    const gralmatch::RecordTable& records, const std::vector<char>& alive,
    const gralmatch::IncrementalPipelineConfig& config,
    const gralmatch::PairwiseMatcher& matcher);

/// Predicted pairs, components, groups and cleanup counters must agree.
void ExpectSameResult(const gralmatch::PipelineResult& actual,
                      const gralmatch::PipelineResult& expected,
                      const std::string& what, RunResult* out);

/// Structural properties of a result over the records with alive[id] != 0:
/// groups partition the live records, each group lies inside one
/// pre-cleanup component, the pre-cleanup components are the connected
/// components of the predicted pairs (driver's own union-find), and no
/// group is larger than `mu`.
void CheckGroupStructure(const gralmatch::PipelineResult& result,
                         const std::vector<char>& alive, size_t mu,
                         const std::string& what, RunResult* out);

/// Rescore `samples` seeded predicted pairs through MatchProbability; each
/// must stay at or above `threshold`.
void CheckSampledScores(const gralmatch::PipelineResult& result,
                        const gralmatch::RecordTable& records,
                        const gralmatch::PairwiseMatcher& matcher,
                        double threshold, uint64_t seed, size_t samples,
                        const std::string& what, RunResult* out);

/// A loaded checkpoint must snapshot like the saved pipeline and
/// re-serialize to the saved bytes.
void CheckCheckpointRoundTrip(const std::string& saved_image,
                              const gralmatch::PipelineResult& saved_snapshot,
                              const gralmatch::IncrementalPipeline& loaded,
                              const std::string& what, RunResult* out);

/// A reply's answer must equal `view`'s answer for the same request.
bool ReplyMatches(const gralmatch::MatchSnapshot& view, int64_t id,
                  bool members, const gralmatch::NetReply& reply);

/// Entity-group F1 of `groups` against `entity_of` (indexed by record id,
/// kInvalidEntity for records outside the live set).
double GroupF1(const std::vector<std::vector<gralmatch::NodeId>>& groups,
               const std::vector<gralmatch::EntityId>& entity_of);

}  // namespace e2ebench

#endif  // GRALMATCH_E2EBENCH_CHECKS_H_
