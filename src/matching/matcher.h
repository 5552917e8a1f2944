#ifndef GRALMATCH_MATCHING_MATCHER_H_
#define GRALMATCH_MATCHING_MATCHER_H_

/// \file matcher.h
/// Pairwise matcher interface. GraLMatch is matcher-agnostic (Figure 1 of
/// the paper): any component that scores record pairs can feed the graph
/// cleanup. See docs/matchers.md for the catalogue of implementations and
/// the batched-scoring / fingerprint contracts in prose.

#include <string>

#include "common/span.h"
#include "data/ground_truth.h"
#include "data/record.h"

namespace gralmatch {

/// \brief Scores record pairs as Match / NoMatch.
class PairwiseMatcher {
 public:
  virtual ~PairwiseMatcher() = default;

  /// Display name ("DistilBERT (128)-ALL", ...).
  virtual std::string name() const = 0;

  /// Probability in [0, 1] that the two records refer to the same entity.
  virtual double MatchProbability(const Record& a, const Record& b) const = 0;

  /// Score a batch of candidate pairs into `out` (out.size() == pairs.size();
  /// out[i] is the score of pairs[i] against `records`).
  ///
  /// Contract — batch composition never changes results: for every i,
  /// out[i] is bitwise-identical to
  /// MatchProbability(records.at(pairs[i].a), records.at(pairs[i].b)), for
  /// any split of a pair set into batches and any batch order. Overrides
  /// exist purely to amortize per-call costs (one padded/packed forward pass
  /// in TransformerMatcher, gate-then-escalate batching in CascadeMatcher);
  /// they must never make scores depend on the other pairs in the batch.
  /// The differential suites (tests/property_test.cc random batch splits,
  /// the batch-vs-per-pair pipeline tests) enforce this bitwise.
  ///
  /// The default implementation loops MatchProbability, which trivially
  /// satisfies the contract. Like MatchProbability, ScoreBatch must be
  /// const-thread-safe: the scoring sites fan batches out across threads.
  virtual void ScoreBatch(const RecordTable& records,
                          Span<const RecordPair> pairs,
                          Span<double> out) const {
    for (size_t i = 0; i < pairs.size(); ++i) {
      out[i] = MatchProbability(records.at(pairs[i].a), records.at(pairs[i].b));
    }
  }

  /// Stable identifier of this matcher's scoring function.
  ///
  /// Contract — the fingerprint must change whenever scores can change: two
  /// matchers with equal fingerprints must produce identical
  /// MatchProbability/ScoreBatch outputs on every record pair. The pair-score
  /// cache (stream/) and checkpoints (serve/) key on it, so any
  /// state that influences a score has to be folded in:
  ///   - trained parameters (TfidfLogRegMatcher digests its weights,
  ///     TransformerMatcher bumps a per-mutation revision),
  ///   - configuration that routes or thresholds scoring (CascadeMatcher
  ///     folds its band thresholds, reference mode, and both inner
  ///     fingerprints — two cascades that differ only in a threshold must
  ///     not alias, tests/matching_test.cc pins this),
  ///   - inner matchers of any wrapper (SlowLlmMatcher).
  /// The default is the display name, which is only correct for stateless,
  /// parameterless matchers.
  virtual std::string Fingerprint() const { return name(); }

  /// Binary decision at the 0.5 threshold.
  bool IsMatch(const Record& a, const Record& b) const {
    return MatchProbability(a, b) >= 0.5;
  }
};

}  // namespace gralmatch

#endif  // GRALMATCH_MATCHING_MATCHER_H_
