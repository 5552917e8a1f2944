#include "checks.h"

#include <sys/resource.h>

#include <algorithm>
#include <numeric>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/rng.h"
#include "data/ground_truth.h"
#include "eval/metrics.h"
#include "net/wire.h"
#include "serve/checkpoint.h"

namespace e2ebench {

using gralmatch::NodeId;
using gralmatch::PipelineResult;
using gralmatch::RecordId;

namespace {

/// The driver's own union-find (path halving, union by index), kept apart
/// from the program's common/union_find.h on purpose.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<size_t> parent_;
};

/// Components with at least two members, each sorted, in sorted order.
std::vector<std::vector<NodeId>> Canonical(
    const std::vector<std::vector<NodeId>>& sets) {
  std::vector<std::vector<NodeId>> out;
  for (const auto& set : sets) {
    if (set.size() < 2) continue;
    out.push_back(set);
    std::sort(out.back().begin(), out.back().end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

PipelineResult SurvivorReference(
    const gralmatch::RecordTable& records, const std::vector<char>& alive,
    const gralmatch::IncrementalPipelineConfig& config,
    const gralmatch::PairwiseMatcher& matcher) {
  gralmatch::Dataset survivors;
  std::vector<NodeId> original;  // compact id -> original id
  for (size_t i = 0; i < records.size(); ++i) {
    if (!alive[i]) continue;
    survivors.records.Add(records.at(static_cast<RecordId>(i)));
    original.push_back(static_cast<NodeId>(i));
  }
  gralmatch::CandidateSet candidates;
  if (config.use_id_blocker) {
    gralmatch::IdOverlapBlocker::Options options;
    options.num_threads = config.pipeline.num_threads;
    gralmatch::IdOverlapBlocker(options).AddCandidates(survivors, &candidates);
  }
  if (config.use_token_blocker) {
    gralmatch::TokenOverlapBlocker::Options options = config.token;
    options.num_threads = config.pipeline.num_threads;
    gralmatch::TokenOverlapBlocker(options).AddCandidates(survivors,
                                                          &candidates);
  }
  gralmatch::PipelineConfig batch = config.pipeline;
  batch.metrics = nullptr;
  PipelineResult ref = gralmatch::EntityGroupPipeline(batch).Run(
      survivors, candidates.ToVector(), matcher);
  for (gralmatch::RecordPair& pair : ref.predicted_pairs) {
    pair.a = original[static_cast<size_t>(pair.a)];
    pair.b = original[static_cast<size_t>(pair.b)];
  }
  for (auto* sets : {&ref.pre_cleanup_components, &ref.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  return ref;
}

void ExpectSameResult(const PipelineResult& actual,
                      const PipelineResult& expected, const std::string& what,
                      RunResult* out) {
  const auto& a = actual.cleanup_stats;
  const auto& e = expected.cleanup_stats;
  if (actual.predicted_pairs != expected.predicted_pairs) {
    out->Fail(what + ": predicted pairs differ");
  }
  if (actual.pre_cleanup_components != expected.pre_cleanup_components) {
    out->Fail(what + ": pre-cleanup components differ");
  }
  if (actual.groups != expected.groups) out->Fail(what + ": groups differ");
  if (a.pre_cleanup_edges_removed != e.pre_cleanup_edges_removed ||
      a.min_cut_calls != e.min_cut_calls ||
      a.min_cut_edges_removed != e.min_cut_edges_removed ||
      a.betweenness_calls != e.betweenness_calls ||
      a.betweenness_edges_removed != e.betweenness_edges_removed) {
    out->Fail(what + ": cleanup counters differ");
  }
}

void CheckGroupStructure(const PipelineResult& result,
                         const std::vector<char>& alive, size_t mu,
                         const std::string& what, RunResult* out) {
  const size_t n = alive.size();
  std::vector<int> seen(n, 0);
  for (const auto& group : result.groups) {
    if (group.size() > mu) {
      out->Fail(what + ": a group of " + std::to_string(group.size()) +
                " records exceeds mu=" + std::to_string(mu));
    }
    for (NodeId u : group) {
      if (u < 0 || static_cast<size_t>(u) >= n || !alive[u]) {
        out->Fail(what + ": a group holds a record that is not live");
        return;
      }
      ++seen[static_cast<size_t>(u)];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (alive[i] && seen[i] != 1) {
      out->Fail(what + ": groups do not partition the live records");
      return;
    }
  }

  // Pre-cleanup components == connected components of the predicted pairs.
  DisjointSets sets(n);
  for (const auto& pair : result.predicted_pairs) {
    sets.Union(static_cast<size_t>(pair.a), static_cast<size_t>(pair.b));
  }
  std::vector<std::vector<NodeId>> by_root(n);
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) by_root[sets.Find(i)].push_back(static_cast<NodeId>(i));
  }
  if (Canonical(by_root) != Canonical(result.pre_cleanup_components)) {
    out->Fail(what +
              ": pre-cleanup components differ from the components of the "
              "predicted pairs");
  }
  for (const auto& group : result.groups) {
    for (NodeId u : group) {
      if (sets.Find(static_cast<size_t>(u)) !=
          sets.Find(static_cast<size_t>(group.front()))) {
        out->Fail(what + ": a group spans two pre-cleanup components");
        return;
      }
    }
  }
}

void CheckSampledScores(const PipelineResult& result,
                        const gralmatch::RecordTable& records,
                        const gralmatch::PairwiseMatcher& matcher,
                        double threshold, uint64_t seed, size_t samples,
                        const std::string& what, RunResult* out) {
  if (result.predicted_pairs.empty()) {
    out->Fail(what + ": no predicted pairs");
    return;
  }
  gralmatch::Rng rng(seed);
  for (size_t k = 0; k < samples; ++k) {
    const auto& pair =
        result.predicted_pairs[rng.Uniform(result.predicted_pairs.size())];
    const double p =
        matcher.MatchProbability(records.at(pair.a), records.at(pair.b));
    if (!(p >= threshold)) {
      out->Fail(what + ": predicted pair (" + std::to_string(pair.a) + ", " +
                std::to_string(pair.b) + ") rescored below the threshold");
      return;
    }
  }
}

void CheckCheckpointRoundTrip(const std::string& saved_image,
                              const PipelineResult& saved_snapshot,
                              const gralmatch::IncrementalPipeline& loaded,
                              const std::string& what, RunResult* out) {
  auto snapshot = loaded.Snapshot();
  if (!snapshot.ok()) {
    out->Fail(what + ": loaded pipeline cannot snapshot");
    return;
  }
  ExpectSameResult(*snapshot, saved_snapshot, what + " (loaded snapshot)",
                   out);
  auto image = gralmatch::SerializeCheckpoint(loaded);
  if (!image.ok() || *image != saved_image) {
    out->Fail(what + ": re-serialized checkpoint differs from the saved one");
  }
}

bool ReplyMatches(const gralmatch::MatchSnapshot& view, int64_t id,
                  bool members, const gralmatch::NetReply& reply) {
  if (!reply.status.ok() || reply.epoch != view.epoch()) return false;
  if (members) return reply.members == view.Members(id);
  return reply.group == view.GroupOf(static_cast<RecordId>(id));
}

double GroupF1(const std::vector<std::vector<NodeId>>& groups,
               const std::vector<gralmatch::EntityId>& entity_of) {
  return gralmatch::GroupPrf(groups, gralmatch::GroundTruth(entity_of)).F1();
}

// --- harness.h helpers ------------------------------------------------------

void LayerCounts::Add(const gralmatch::IngestReport& report) {
  cache_hits += report.cache_hits;
  cache_evictions += report.cache_evictions;
  components_rebuilt += report.components_rebuilt;
  components_reused += report.components_reused;
  candidates_added += report.candidates_added;
  candidates_removed += report.candidates_removed;
  pairs_scored += report.pairs_scored;
}

void LayerCounts::SetCleanup(const PipelineResult& result) {
  const auto& stats = result.cleanup_stats;
  min_cut_calls = stats.min_cut_calls;
  betweenness_calls = stats.betweenness_calls;
  edges_removed = stats.pre_cleanup_edges_removed +
                  stats.min_cut_edges_removed +
                  stats.betweenness_edges_removed;
  largest_component = 0;
  for (const auto& comp : result.pre_cleanup_components) {
    largest_component = std::max<uint64_t>(largest_component, comp.size());
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2ebench
