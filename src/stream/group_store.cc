#include "stream/group_store.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/binary_io.h"
#include "common/union_find.h"
#include "core/cleanup.h"

namespace gralmatch {

void WriteRecordPairs(const std::vector<RecordPair>& pairs,
                      BinaryWriter* writer) {
  writer->WriteU64(pairs.size());
  for (const RecordPair& pair : pairs) {
    writer->WriteI32(pair.a);
    writer->WriteI32(pair.b);
  }
}

Status ReadRecordPairs(BinaryReader* reader, size_t num_records,
                       std::vector<RecordPair>* pairs) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &count));
  pairs->clear();
  pairs->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordPair pair;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.a));
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.b));
    if (pair.a < 0 || pair.b < 0 ||
        static_cast<size_t>(pair.a) >= num_records ||
        static_cast<size_t>(pair.b) >= num_records) {
      return Status::IOError("corrupted checkpoint: record pair out of range");
    }
    pairs->push_back(pair);
  }
  return Status::OK();
}

namespace {

/// Read a node-id vector whose entries must lie in [0, num_records).
Status ReadNodeIdVector(BinaryReader* reader, size_t num_records,
                        std::vector<NodeId>* nodes) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  nodes->clear();
  nodes->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    NodeId node = -1;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&node));
    if (node < 0 || static_cast<size_t>(node) >= num_records) {
      return Status::IOError("corrupted checkpoint: node id " +
                             std::to_string(node) + " out of range");
    }
    nodes->push_back(node);
  }
  return Status::OK();
}

/// One component's byte encoding: nodes, pairs, cleaned groups, cleanup
/// counters.
void WriteComponentState(const GroupStore::ComponentState& comp,
                         BinaryWriter* writer) {
  writer->WriteU64(comp.nodes.size());
  for (const NodeId u : comp.nodes) writer->WriteI32(u);
  WriteRecordPairs(comp.pairs, writer);
  writer->WriteU64(comp.groups.size());
  for (const auto& group : comp.groups) {
    writer->WriteU64(group.size());
    for (const NodeId u : group) writer->WriteI32(u);
  }
  writer->WriteU64(comp.stats.pre_cleanup_edges_removed);
  writer->WriteU64(comp.stats.min_cut_calls);
  writer->WriteU64(comp.stats.min_cut_edges_removed);
  writer->WriteU64(comp.stats.betweenness_calls);
  writer->WriteU64(comp.stats.betweenness_edges_removed);
}

/// Read WriteComponentState output; every id bounded by [0, num_records).
Status ReadComponentState(BinaryReader* reader, size_t num_records,
                          GroupStore::ComponentState* comp) {
  GRALMATCH_RETURN_NOT_OK(ReadNodeIdVector(reader, num_records, &comp->nodes));
  GRALMATCH_RETURN_NOT_OK(ReadRecordPairs(reader, num_records, &comp->pairs));
  uint64_t num_groups = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &num_groups));
  comp->groups.clear();
  comp->groups.reserve(static_cast<size_t>(num_groups));
  for (uint64_t g = 0; g < num_groups; ++g) {
    std::vector<NodeId> group;
    GRALMATCH_RETURN_NOT_OK(ReadNodeIdVector(reader, num_records, &group));
    comp->groups.push_back(std::move(group));
  }
  uint64_t stat = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.pre_cleanup_edges_removed = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.min_cut_calls = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.min_cut_edges_removed = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.betweenness_calls = static_cast<size_t>(stat);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&stat));
  comp->stats.betweenness_edges_removed = static_cast<size_t>(stat);
  return Status::OK();
}

}  // namespace

void GroupStore::EnsureNumRecords(size_t num_records) {
  if (comp_of_node_.size() < num_records) {
    comp_of_node_.resize(num_records, -1);
  }
}

void GroupStore::RebuildComponent(ComponentState* comp,
                                  const ProvenanceFn& prov_of,
                                  const PipelineConfig& config,
                                  ThreadPool* pool) {
  // Nodes are sorted, pairs are sorted: inserting edges in pair order
  // reproduces the edge-id order of a from-scratch run, and the monotone
  // node remap preserves every comparison the cleanup tie-breaks on.
  Graph local(comp->nodes.size());
  auto local_id = [comp](NodeId u) {
    return static_cast<NodeId>(
        std::lower_bound(comp->nodes.begin(), comp->nodes.end(), u) -
        comp->nodes.begin());
  };
  std::vector<uint32_t> edge_provenance;
  edge_provenance.reserve(comp->pairs.size());
  for (const RecordPair& pair : comp->pairs) {
    // Discard audited: endpoints are remapped members of this component, so
    // AddEdge cannot fail; the local edge id is not needed.
    (void)local.AddEdge(local_id(pair.a), local_id(pair.b));
    edge_provenance.push_back(prov_of(pair));
  }

  comp->stats = CleanupStats();
  PreCleanup(&local, edge_provenance, config.pre_cleanup_threshold,
             &comp->stats);
  GraLMatchCleanup cleanup(config.cleanup);
  std::vector<std::vector<NodeId>> local_groups =
      cleanup.Run(&local, &comp->stats, pool);
  comp->stats.seconds = 0.0;  // counters only; the caller accounts wall-clock

  comp->groups.clear();
  comp->groups.reserve(local_groups.size());
  for (auto& group : local_groups) {
    for (NodeId& u : group) u = comp->nodes[static_cast<size_t>(u)];
    comp->groups.push_back(std::move(group));
  }
}

GroupStore::ApplyReport GroupStore::Apply(
    const std::vector<RecordPair>& pos_added,
    const std::vector<RecordPair>& pos_removed,
    const std::vector<RecordPair>& pos_prov_changed, bool rebuild_all,
    const ProvenanceFn& prov_of, const PipelineConfig& config,
    ThreadPool* pool) {
  ApplyReport report;

  // Dirty components: every component touching an affected node, i.e. an
  // endpoint of an edge that appeared, disappeared, or changed provenance
  // (provenance feeds the Pre Cleanup). With rebuild_all every component is
  // conservatively dirty.
  std::unordered_set<int32_t> dirty_comps;
  std::vector<NodeId> loose_nodes;  // affected nodes outside any component
  auto touch_node = [&](NodeId u) {
    const int32_t cid = comp_of_node_[static_cast<size_t>(u)];
    if (cid >= 0) {
      dirty_comps.insert(cid);
    } else {
      loose_nodes.push_back(u);
    }
  };
  for (const RecordPair& pair : pos_added) {
    touch_node(pair.a);
    touch_node(pair.b);
  }
  for (const RecordPair& pair : pos_removed) {
    touch_node(pair.a);
    touch_node(pair.b);
  }
  for (const RecordPair& pair : pos_prov_changed) {
    touch_node(pair.a);
    touch_node(pair.b);
  }
  if (rebuild_all) {
    for (const auto& [cid, comp] : comps_) dirty_comps.insert(cid);
  }
  report.components_reused = comps_.size() - dirty_comps.size();

  if (!dirty_comps.empty() || !loose_nodes.empty()) {
    // Union the dirty region's nodes and surviving pairs, recompute its
    // connectivity, and re-clean each resulting component. Every removed
    // pair's endpoints are affected, so removals never touch a clean
    // component; every added pair's endpoints are in the region by
    // construction.
    std::vector<NodeId> region_nodes = loose_nodes;
    std::vector<RecordPair> region_pairs = pos_added;
    const std::unordered_set<RecordPair, RecordPairHash> removed_set(
        pos_removed.begin(), pos_removed.end());
    for (const int32_t cid : dirty_comps) {
      const ComponentState& comp = comps_.at(cid);
      region_nodes.insert(region_nodes.end(), comp.nodes.begin(),
                          comp.nodes.end());
      for (const RecordPair& pair : comp.pairs) {
        if (!removed_set.count(pair)) region_pairs.push_back(pair);
      }
    }
    std::sort(region_nodes.begin(), region_nodes.end());
    region_nodes.erase(std::unique(region_nodes.begin(), region_nodes.end()),
                       region_nodes.end());
    auto region_index = [&region_nodes](NodeId u) {
      return static_cast<size_t>(
          std::lower_bound(region_nodes.begin(), region_nodes.end(), u) -
          region_nodes.begin());
    };
    UnionFind uf(region_nodes.size());
    for (const RecordPair& pair : region_pairs) {
      uf.Union(region_index(pair.a), region_index(pair.b));
    }

    for (const int32_t cid : dirty_comps) comps_.erase(cid);
    std::unordered_map<size_t, int32_t> comp_of_root;
    std::vector<int32_t> rebuilt_ids;
    for (size_t k = 0; k < region_nodes.size(); ++k) {
      const NodeId u = region_nodes[k];
      if (uf.SetSize(k) < 2) {
        comp_of_node_[static_cast<size_t>(u)] = -1;
        continue;
      }
      const size_t root = uf.Find(k);
      auto [it, inserted] = comp_of_root.emplace(root, next_comp_id_);
      if (inserted) {
        ++next_comp_id_;
        rebuilt_ids.push_back(it->second);
      }
      comp_of_node_[static_cast<size_t>(u)] = it->second;
      comps_[it->second].nodes.push_back(u);  // ascending: k is ascending
    }
    for (const RecordPair& pair : region_pairs) {
      comps_[comp_of_node_[static_cast<size_t>(pair.a)]].pairs.push_back(pair);
    }
    for (const int32_t cid : rebuilt_ids) {
      ComponentState& comp = comps_[cid];
      std::sort(comp.pairs.begin(), comp.pairs.end());
      RebuildComponent(&comp, prov_of, config, pool);
    }
    report.components_rebuilt = rebuilt_ids.size();
  }
  return report;
}

void GroupStore::FillSnapshot(size_t num_records, const std::vector<char>* alive,
                              PipelineResult* result) const {
  // Components (and groups) in the batch pipeline's canonical order:
  // components by smallest contained node — exactly the order a node scan
  // produces — and groups sorted by their smallest node afterwards.
  for (size_t u = 0; u < num_records; ++u) {
    if (alive != nullptr && !(*alive)[u]) continue;
    const int32_t cid = comp_of_node_[u];
    if (cid < 0) {
      result->pre_cleanup_components.push_back({static_cast<NodeId>(u)});
      result->groups.push_back({static_cast<NodeId>(u)});
      continue;
    }
    const ComponentState& comp = comps_.at(cid);
    if (comp.nodes.front() != static_cast<NodeId>(u)) continue;
    result->pre_cleanup_components.push_back(comp.nodes);
    for (const auto& group : comp.groups) result->groups.push_back(group);
  }
  std::sort(result->groups.begin(), result->groups.end(),
            [](const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
              return a.front() < b.front();
            });

  for (const auto& [cid, comp] : comps_) {
    result->cleanup_stats.pre_cleanup_edges_removed +=
        comp.stats.pre_cleanup_edges_removed;
    result->cleanup_stats.min_cut_calls += comp.stats.min_cut_calls;
    result->cleanup_stats.min_cut_edges_removed +=
        comp.stats.min_cut_edges_removed;
    result->cleanup_stats.betweenness_calls += comp.stats.betweenness_calls;
    result->cleanup_stats.betweenness_edges_removed +=
        comp.stats.betweenness_edges_removed;
  }
}

void GroupStore::Save(BinaryWriter* writer) const {
  writer->WriteU64(comp_of_node_.size());
  for (int32_t cid : comp_of_node_) writer->WriteI32(cid);
  std::vector<int32_t> comp_ids;
  comp_ids.reserve(comps_.size());
  for (const auto& [cid, comp] : comps_) comp_ids.push_back(cid);
  std::sort(comp_ids.begin(), comp_ids.end());
  writer->WriteU64(comp_ids.size());
  for (int32_t cid : comp_ids) {
    writer->WriteI32(cid);
    WriteComponentState(comps_.at(cid), writer);
  }
  writer->WriteI32(next_comp_id_);
}

Status GroupStore::Load(BinaryReader* reader, size_t num_records,
                        const IsPositiveFn& is_positive) {
  comp_of_node_.clear();
  comps_.clear();
  next_comp_id_ = 0;

  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  if (count != num_records) {
    return Status::IOError(
        "corrupted checkpoint: component map size disagrees with the record "
        "table");
  }
  comp_of_node_.resize(static_cast<size_t>(count));
  for (auto& cid : comp_of_node_) {
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&cid));
  }

  uint64_t num_comps = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &num_comps));
  for (uint64_t k = 0; k < num_comps; ++k) {
    int32_t cid = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&cid));
    ComponentState comp;
    GRALMATCH_RETURN_NOT_OK(ReadComponentState(reader, num_records, &comp));
    if (comp.nodes.empty()) {
      return Status::IOError("corrupted checkpoint: empty component");
    }
    if (!comps_.emplace(cid, std::move(comp)).second) {
      return Status::IOError("corrupted checkpoint: duplicate component id");
    }
  }
  for (size_t r = 0; r < comp_of_node_.size(); ++r) {
    const int32_t cid = comp_of_node_[r];
    if (cid >= 0 && !comps_.count(cid)) {
      return Status::IOError(
          "corrupted checkpoint: record mapped to a missing component");
    }
  }
  // FillSnapshot keys each component's emission off its smallest node and
  // RebuildComponent binary-searches the node list, so the list must be
  // sorted and unique and agree with the membership map.
  for (const auto& [cid, comp] : comps_) {
    if (!std::is_sorted(comp.nodes.begin(), comp.nodes.end()) ||
        std::adjacent_find(comp.nodes.begin(), comp.nodes.end()) !=
            comp.nodes.end()) {
      return Status::IOError(
          "corrupted checkpoint: component node list is not sorted unique");
    }
    for (const NodeId node : comp.nodes) {
      if (comp_of_node_[static_cast<size_t>(node)] != cid) {
        return Status::IOError(
            "corrupted checkpoint: component node list disagrees with the "
            "membership map");
      }
    }
  }
  GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&next_comp_id_));
  return Validate(is_positive);
}

Status GroupStore::Validate(const IsPositiveFn& is_positive) const {
  // Every component edge must be a current positive pair with both
  // endpoints inside the component — an edge into another component would
  // index past the local UnionFind on the next dirty rebuild. The next id
  // must be fresh: colliding with a live component would make a later
  // rebuild silently merge two components' state.
  for (const auto& [cid, comp] : comps_) {
    for (const RecordPair& pair : comp.pairs) {
      if (!is_positive(pair)) {
        return Status::IOError(
            "corrupted checkpoint: component edge is not a positive pair");
      }
      if (!std::binary_search(comp.nodes.begin(), comp.nodes.end(), pair.a) ||
          !std::binary_search(comp.nodes.begin(), comp.nodes.end(), pair.b)) {
        return Status::IOError(
            "corrupted checkpoint: component edge endpoint outside the "
            "component");
      }
    }
    if (cid < 0 || cid >= next_comp_id_) {
      return Status::IOError(
          "corrupted checkpoint: component id outside [0, next_comp_id)");
    }
  }
  return Status::OK();
}

}  // namespace gralmatch
