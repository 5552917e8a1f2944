#ifndef GRALMATCH_STREAM_GROUP_STORE_H_
#define GRALMATCH_STREAM_GROUP_STORE_H_

/// \file group_store.h
/// Incrementally maintained component/group state of the streaming
/// pipeline: the connected components of the pristine (pre-cleanup)
/// positive-edge graph, each with its cached cleanup outcome.
///
/// Apply() is the dirty-component cleanup step. Given the positive-edge
/// transitions of one ingest (edges added / removed / provenance-changed),
/// it re-runs Pre Graph Cleanup + the GraLMatch cleanup only on the
/// components those transitions touch, splicing every untouched component
/// through unchanged with its cached counters. The rebuild reproduces a
/// from-scratch run bit for bit: component subgraphs are rebuilt with nodes
/// compact-remapped in sorted order and edges inserted in sorted pair order
/// — exactly the edge-id order a from-scratch run on the union would assign
/// — so every cleanup tie-break matches the batch pipeline.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "data/ground_truth.h"
#include "graph/graph.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Serialize a sorted pair vector (u64 count + i32 pairs).
void WriteRecordPairs(const std::vector<RecordPair>& pairs,
                      BinaryWriter* writer);

/// Read a pair vector whose record ids must lie in [0, num_records).
Status ReadRecordPairs(BinaryReader* reader, size_t num_records,
                       std::vector<RecordPair>* pairs);

/// \brief Component/group state with dirty-component cleanup.
class GroupStore {
 public:
  /// One connected component of the pristine positive-edge graph, with its
  /// cached cleanup outcome.
  struct ComponentState {
    std::vector<NodeId> nodes;      ///< sorted ascending
    std::vector<RecordPair> pairs;  ///< positive pairs inside, sorted
    std::vector<std::vector<NodeId>> groups;  ///< cleaned groups, global ids
    CleanupStats stats;  ///< counters only (seconds stays 0)
  };

  struct ApplyReport {
    size_t components_rebuilt = 0;
    size_t components_reused = 0;
  };

  /// Provenance bits of a (current) positive pair; feeds the Pre Cleanup.
  using ProvenanceFn = std::function<uint32_t(const RecordPair&)>;
  /// Whether a pair is currently positive (checkpoint validation).
  using IsPositiveFn = std::function<bool(const RecordPair&)>;

  /// Grow the per-record membership map to `num_records` entries (new
  /// records start as singletons). Call before Apply when records arrived.
  void EnsureNumRecords(size_t num_records);

  /// Fold one ingest's positive-edge transitions into the component
  /// structure and re-clean exactly the dirty region (see file comment).
  /// With `rebuild_all` every component is conservatively dirty (matcher
  /// fingerprint changes re-derive every score). All three transition lists
  /// must be consistent with the store: removed/changed pairs were present,
  /// added pairs are new.
  ApplyReport Apply(const std::vector<RecordPair>& pos_added,
                    const std::vector<RecordPair>& pos_removed,
                    const std::vector<RecordPair>& pos_prov_changed,
                    bool rebuild_all, const ProvenanceFn& prov_of,
                    const PipelineConfig& config, ThreadPool* pool);

  /// Fill `result` with pre-cleanup components, groups and cleanup counters
  /// in the batch pipeline's canonical order: components by smallest
  /// contained node (singletons included), groups sorted by smallest node.
  /// `alive` (optional, size `num_records`) masks out tombstoned records:
  /// dead records emit no singleton component/group — by the retraction
  /// invariant they are in no component, so the snapshot is exactly the one
  /// a from-scratch run on the survivors produces (modulo the monotone id
  /// compaction). `result->cleanup_stats.seconds` is left untouched
  /// (wall-clock is the caller's bookkeeping).
  void FillSnapshot(size_t num_records, const std::vector<char>* alive,
                    PipelineResult* result) const;

  /// Serialize the complete store (membership map, components in sorted id
  /// order with cached groups/counters, next component id). Byte layout is
  /// the PR-4 checkpoint body layout.
  void Save(BinaryWriter* writer) const;

  /// Restore Save() output, re-validating every cross-field invariant
  /// (membership agreement, sorted-unique node lists, edges positive and
  /// internal, fresh next id). Replaces the current contents.
  Status Load(BinaryReader* reader, size_t num_records,
              const IsPositiveFn& is_positive);

  const std::vector<int32_t>& comp_of_node() const { return comp_of_node_; }

 private:
  /// Re-run Pre Graph Cleanup + Algorithm 1 on one pristine component.
  void RebuildComponent(ComponentState* comp, const ProvenanceFn& prov_of,
                        const PipelineConfig& config, ThreadPool* pool);

  /// Load's cross-field checks: every component edge is a current positive
  /// pair with both endpoints inside its component, and every component id
  /// lies in [0, next_comp_id).
  Status Validate(const IsPositiveFn& is_positive) const;

  /// Component id per record (-1: singleton, not in any positive pair).
  std::vector<int32_t> comp_of_node_;
  std::unordered_map<int32_t, ComponentState> comps_;
  int32_t next_comp_id_ = 0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_STREAM_GROUP_STORE_H_
