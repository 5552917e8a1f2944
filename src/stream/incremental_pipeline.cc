#include "stream/incremental_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "core/score_batching.h"
#include "exec/parallel.h"
#include "obs/metrics.h"

namespace gralmatch {

IncrementalPipeline::IncrementalPipeline(IncrementalPipelineConfig config)
    : config_(config),
      pool_(MaybeMakePool(config.pipeline.num_threads)),
      token_index_(config.token) {}

IncrementalPipeline::~IncrementalPipeline() = default;

Status IncrementalPipeline::PoisonError() const {
  return Status::Internal(
      "incremental pipeline is poisoned (" + poison_reason_ +
      "); its state is inconsistent — discard this instance and restore "
      "from a checkpoint");
}

Status IncrementalPipeline::status() const {
  return poisoned_ ? PoisonError() : Status::OK();
}

Status IncrementalPipeline::ValidateRemovals(
    const std::vector<RecordId>& ids) const {
  std::unordered_set<RecordId> seen;
  for (RecordId id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= records_.size()) {
      return Status::InvalidArgument("cannot remove record " +
                                     std::to_string(id) +
                                     ": id out of range");
    }
    if (!alive_[static_cast<size_t>(id)]) {
      return Status::InvalidArgument("cannot remove record " +
                                     std::to_string(id) +
                                     ": already tombstoned");
    }
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("cannot remove record " +
                                     std::to_string(id) +
                                     ": duplicated in the removal set");
    }
  }
  return Status::OK();
}

Result<IngestReport> IncrementalPipeline::Ingest(
    const std::vector<Record>& batch, const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  try {
    return MutateImpl(batch, {}, matcher);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_reason_ = std::string("an ingest aborted mid-way: ") + e.what();
    return PoisonError();
  } catch (...) {
    poisoned_ = true;
    poison_reason_ = "an ingest aborted mid-way: non-standard exception";
    return PoisonError();
  }
}

Result<IngestReport> IncrementalPipeline::Remove(
    const std::vector<RecordId>& ids, const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  GRALMATCH_RETURN_NOT_OK(ValidateRemovals(ids));
  try {
    return MutateImpl({}, ids, matcher);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_reason_ = std::string("a removal aborted mid-way: ") + e.what();
    return PoisonError();
  } catch (...) {
    poisoned_ = true;
    poison_reason_ = "a removal aborted mid-way: non-standard exception";
    return PoisonError();
  }
}

Result<IngestReport> IncrementalPipeline::Update(
    const std::vector<RecordUpdate>& batch, const PairwiseMatcher& matcher) {
  if (poisoned_) return PoisonError();
  std::vector<RecordId> ids;
  std::vector<Record> adds;
  ids.reserve(batch.size());
  adds.reserve(batch.size());
  for (const RecordUpdate& update : batch) {
    ids.push_back(update.id);
    adds.push_back(update.record);
  }
  GRALMATCH_RETURN_NOT_OK(ValidateRemovals(ids));
  try {
    return MutateImpl(adds, ids, matcher);
  } catch (const std::exception& e) {
    poisoned_ = true;
    poison_reason_ = std::string("an update aborted mid-way: ") + e.what();
    return PoisonError();
  } catch (...) {
    poisoned_ = true;
    poison_reason_ = "an update aborted mid-way: non-standard exception";
    return PoisonError();
  }
}

IngestReport IncrementalPipeline::MutateImpl(
    const std::vector<Record>& adds, const std::vector<RecordId>& removal_ids,
    const PairwiseMatcher& matcher) {
  const obs::PipelineMetrics metrics =
      obs::PipelineMetrics::Create(config_.pipeline.metrics);
  IngestReport report;
  report.records_added = adds.size();
  report.records_removed = removal_ids.size();
  for (const Record& rec : adds) records_.Add(rec);
  alive_.resize(records_.size(), 1);
  for (RecordId id : removal_ids) alive_[static_cast<size_t>(id)] = 0;
  num_dead_ += removal_ids.size();
  store_.EnsureNumRecords(records_.size());

  // A fingerprint change means every cached score is stale: clear the cache
  // and re-derive the positive set and every component from fresh scores.
  const std::string fingerprint = matcher.Fingerprint();
  const bool rescore_all = !fingerprint_.empty() && fingerprint != fingerprint_;
  if (rescore_all) score_cache_.clear();
  fingerprint_ = fingerprint;

  // Blocking: fold each index's deltas into the candidate set, snapshotting
  // each touched pair's pre-mutation provenance once. Retraction runs
  // before absorption per index; the candidate transitions below diff the
  // pre-mutation snapshot against the final state, so they are independent
  // of this internal order.
  Stopwatch blocking_watch;
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_prov;
  auto apply_delta = [&](const CandidateDelta& delta, uint32_t bit) {
    for (const RecordPair& pair : delta.added) {
      uint32_t& prov = candidate_prov_[pair];
      old_prov.emplace(pair, prov);
      prov |= bit;
    }
    for (const RecordPair& pair : delta.removed) {
      auto it = candidate_prov_.find(pair);
      old_prov.emplace(pair, it->second);
      it->second &= ~bit;
    }
  };
  if (config_.use_id_blocker) {
    apply_delta(id_index_.RemoveRecords(records_, removal_ids, pool_.get()),
                kBlockerIdOverlap);
    apply_delta(id_index_.AddRecords(records_, pool_.get()), kBlockerIdOverlap);
  }
  if (config_.use_token_blocker) {
    apply_delta(token_index_.RemoveRecords(records_, removal_ids, pool_.get()),
                kBlockerTokenOverlap);
    apply_delta(token_index_.AddRecords(records_, pool_.get()),
                kBlockerTokenOverlap);
  }

  // A pair with no provenance left is no candidate, including one that a
  // single mutation both admitted and retracted (before == now == 0).
  std::vector<RecordPair> cand_added, cand_removed, prov_changed;
  for (const auto& [pair, before] : old_prov) {
    const uint32_t now = candidate_prov_.at(pair);
    if (now == 0) {
      candidate_prov_.erase(pair);
      if (before != 0) cand_removed.push_back(pair);
    } else if (before == 0) {
      cand_added.push_back(pair);
    } else if (before != now) {
      prov_changed.push_back(pair);
    }
  }
  std::sort(cand_added.begin(), cand_added.end());
  std::sort(cand_removed.begin(), cand_removed.end());
  std::sort(prov_changed.begin(), prov_changed.end());
  report.candidates_added = cand_added.size();
  report.candidates_removed = cand_removed.size();
  if (metrics.blocking_seconds != nullptr) {
    metrics.blocking_seconds->Observe(blocking_watch.ElapsedSeconds());
  }

  // Evict cached scores touching a tombstoned record. Ids never recycle, so
  // an evicted entry can never be asked for again; surviving entries keep
  // serving re-admitted pairs. Unaffected pairs are deliberately NOT
  // rescored — deletion must not spend matcher calls on them.
  if (!removal_ids.empty() && !score_cache_.empty()) {
    std::vector<char> removed_now(records_.size(), 0);
    for (RecordId id : removal_ids) removed_now[static_cast<size_t>(id)] = 1;
    for (auto it = score_cache_.begin(); it != score_cache_.end();) {
      if (removed_now[static_cast<size_t>(it->first.a)] ||
          removed_now[static_cast<size_t>(it->first.b)]) {
        it = score_cache_.erase(it);
        ++report.cache_evictions;
      } else {
        ++it;
      }
    }
  }

  // Scoring: only pairs without a cached score under the current
  // fingerprint reach the matcher. Re-admitted pairs are cache hits.
  std::vector<RecordPair> to_score;
  if (rescore_all) {
    to_score.reserve(candidate_prov_.size());
    for (const auto& [pair, prov] : candidate_prov_) to_score.push_back(pair);
  } else {
    for (const RecordPair& pair : cand_added) {
      if (score_cache_.count(pair)) {
        ++report.cache_hits;
      } else {
        to_score.push_back(pair);
      }
    }
  }
  std::sort(to_score.begin(), to_score.end());
  // Batched scoring (core/score_batching.h): the sorted to-score list is cut
  // into score_batch_size chunks, one ScoreBatch call each, fanned out over
  // the pool — bitwise-identical to the per-pair walk at any thread count.
  Stopwatch scoring_watch;
  std::vector<double> scores(to_score.size(), 0.0);
  {
    CascadeStatsScope cascade_scope(matcher, metrics.cascade_gate_resolved,
                                    metrics.cascade_escalated);
    ScorePairsBatched(pool_.get(), records_, matcher,
                      Span<const RecordPair>(to_score.data(), to_score.size()),
                      config_.pipeline.score_batch_size,
                      Span<double>(scores.data(), scores.size()));
  }
  report.scoring_seconds = scoring_watch.ElapsedSeconds();
  scoring_seconds_total_ += report.scoring_seconds;
  for (size_t k = 0; k < to_score.size(); ++k) {
    score_cache_[to_score[k]] = scores[k];
  }
  report.pairs_scored = to_score.size();
  total_matcher_calls_ += to_score.size();
  total_cache_hits_ += report.cache_hits;

  // Positive-edge transitions.
  const double threshold = config_.pipeline.match_threshold;
  std::vector<RecordPair> pos_added, pos_removed, pos_prov_changed;
  if (rescore_all) {
    std::unordered_set<RecordPair, RecordPairHash> now_positive;
    for (const auto& [pair, prov] : candidate_prov_) {
      if (score_cache_.at(pair) >= threshold) now_positive.insert(pair);
    }
    for (const RecordPair& pair : now_positive) {
      if (!positives_.count(pair)) pos_added.push_back(pair);
    }
    for (const RecordPair& pair : positives_) {
      if (!now_positive.count(pair)) pos_removed.push_back(pair);
    }
    positives_ = std::move(now_positive);
  } else {
    for (const RecordPair& pair : cand_added) {
      if (score_cache_.at(pair) >= threshold) {
        positives_.insert(pair);
        pos_added.push_back(pair);
      }
    }
    for (const RecordPair& pair : cand_removed) {
      if (positives_.erase(pair) > 0) pos_removed.push_back(pair);
    }
    for (const RecordPair& pair : prov_changed) {
      if (positives_.count(pair)) pos_prov_changed.push_back(pair);
    }
  }

  Stopwatch cleanup_watch;
  GroupStore::ApplyReport cleanup = store_.Apply(
      pos_added, pos_removed, pos_prov_changed, rescore_all,
      [this](const RecordPair& pair) { return candidate_prov_.at(pair); },
      config_.pipeline, pool_.get());
  report.components_rebuilt = cleanup.components_rebuilt;
  report.components_reused = cleanup.components_reused;
  report.cleanup_seconds = cleanup_watch.ElapsedSeconds();
  cleanup_seconds_total_ += report.cleanup_seconds;

  // Observability rollup (null-guarded, inert: the report itself is the
  // semantic output and is untouched by whether a registry is wired).
  if (config_.pipeline.metrics != nullptr) {
    metrics.scoring_seconds->Observe(report.scoring_seconds);
    metrics.cleanup_seconds->Observe(report.cleanup_seconds);
    metrics.mutations->Increment();
    metrics.records_added->Increment(report.records_added);
    metrics.records_removed->Increment(report.records_removed);
    metrics.pairs_scored->Increment(report.pairs_scored);
    metrics.cache_hits->Increment(report.cache_hits);
    metrics.cache_evictions->Increment(report.cache_evictions);
    metrics.components_rebuilt->Increment(report.components_rebuilt);
    metrics.components_reused->Increment(report.components_reused);
  }
  return report;
}

Result<PipelineResult> IncrementalPipeline::Snapshot() const {
  if (poisoned_) return PoisonError();
  PipelineResult result;
  result.predicted_pairs.assign(positives_.begin(), positives_.end());
  std::sort(result.predicted_pairs.begin(), result.predicted_pairs.end());
  store_.FillSnapshot(records_.size(), &alive_, &result);
  result.cleanup_stats.seconds = cleanup_seconds_total_;
  result.inference_seconds = scoring_seconds_total_;
  return result;
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------------

namespace {

/// Sorted snapshot of an unordered pair-keyed map (deterministic bytes).
template <typename V>
std::vector<std::pair<RecordPair, V>> SortedEntries(
    const std::unordered_map<RecordPair, V, RecordPairHash>& map) {
  std::vector<std::pair<RecordPair, V>> entries(map.begin(), map.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

}  // namespace

Status IncrementalPipeline::Serialize(BinaryWriter* writer) const {
  if (poisoned_) return PoisonError();
  // Configuration.
  writer->WriteU64(config_.pipeline.cleanup.gamma);
  writer->WriteU64(config_.pipeline.cleanup.mu);
  writer->WriteDouble(config_.pipeline.match_threshold);
  writer->WriteU64(config_.pipeline.pre_cleanup_threshold);
  writer->WriteU64(config_.pipeline.num_threads);
  writer->WriteU64(config_.token.top_n);
  writer->WriteU64(config_.token.min_overlap);
  writer->WriteDouble(config_.token.max_token_df);
  writer->WriteU8(config_.use_token_blocker ? 1 : 0);
  writer->WriteU8(config_.use_id_blocker ? 1 : 0);

  // Records, in ingest order.
  writer->WriteU64(records_.size());
  for (const Record& rec : records_.records()) {
    writer->WriteI32(rec.source());
    writer->WriteU8(static_cast<uint8_t>(rec.kind()));
    writer->WriteU64(rec.attributes().size());
    for (const auto& [name, value] : rec.attributes()) {
      writer->WriteString(name);
      writer->WriteString(value);
    }
  }

  // Tombstones: sorted dead record ids. Written only when some record is
  // dead — a tombstone-free pipeline keeps emitting the pre-tombstone
  // (version 1) byte layout, and the framing layer stamps the version to
  // match (serve/checkpoint.h).
  if (num_dead_ > 0) {
    writer->WriteU64(num_dead_);
    for (size_t r = 0; r < alive_.size(); ++r) {
      if (!alive_[r]) writer->WriteI32(static_cast<RecordId>(r));
    }
  }

  // Blocking indexes.
  id_index_.SaveState(writer);
  token_index_.SaveState(writer);

  // Scores and candidate state.
  writer->WriteString(fingerprint_);
  auto prov_entries = SortedEntries(candidate_prov_);
  writer->WriteU64(prov_entries.size());
  for (const auto& [pair, prov] : prov_entries) {
    writer->WriteI32(pair.a);
    writer->WriteI32(pair.b);
    writer->WriteU32(prov);
  }
  auto score_entries = SortedEntries(score_cache_);
  writer->WriteU64(score_entries.size());
  for (const auto& [pair, score] : score_entries) {
    writer->WriteI32(pair.a);
    writer->WriteI32(pair.b);
    writer->WriteDouble(score);
  }
  std::vector<RecordPair> positives(positives_.begin(), positives_.end());
  std::sort(positives.begin(), positives.end());
  WriteRecordPairs(positives, writer);

  // Component structure with cached cleanup outcomes.
  store_.Save(writer);

  // Cumulative counters.
  writer->WriteU64(total_matcher_calls_);
  writer->WriteU64(total_cache_hits_);
  writer->WriteDouble(scoring_seconds_total_);
  writer->WriteDouble(cleanup_seconds_total_);
  return Status::OK();
}

Result<std::unique_ptr<IncrementalPipeline>> IncrementalPipeline::Deserialize(
    BinaryReader* reader, uint32_t version, size_t num_threads_override) {
  IncrementalPipelineConfig config;
  uint64_t u = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  config.pipeline.cleanup.gamma = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  config.pipeline.cleanup.mu = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&config.pipeline.match_threshold));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  config.pipeline.pre_cleanup_threshold = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  config.pipeline.num_threads = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  config.token.top_n = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  config.token.min_overlap = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&config.token.max_token_df));
  uint8_t flag = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU8(&flag));
  config.use_token_blocker = flag != 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU8(&flag));
  config.use_id_blocker = flag != 0;
  if (num_threads_override > 0) {
    config.pipeline.num_threads = num_threads_override;
  }

  auto pipeline = std::make_unique<IncrementalPipeline>(config);

  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(13, &num_records));
  for (uint64_t r = 0; r < num_records; ++r) {
    int32_t source = 0;
    uint8_t kind = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&source));
    GRALMATCH_RETURN_NOT_OK(reader->ReadU8(&kind));
    if (kind > static_cast<uint8_t>(RecordKind::kProduct)) {
      return Status::IOError("corrupted checkpoint: unknown record kind " +
                             std::to_string(kind));
    }
    Record rec(static_cast<SourceId>(source), static_cast<RecordKind>(kind));
    uint64_t num_attrs = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(16, &num_attrs));
    for (uint64_t a = 0; a < num_attrs; ++a) {
      std::string name, value;
      GRALMATCH_RETURN_NOT_OK(reader->ReadString(&name));
      GRALMATCH_RETURN_NOT_OK(reader->ReadString(&value));
      rec.Set(name, value);
    }
    pipeline->records_.Add(std::move(rec));
  }
  const size_t n = pipeline->records_.size();
  pipeline->alive_.assign(n, 1);

  // Tombstone section (format v2+): sorted dead record ids. Version 1
  // images predate tombstones, so every record is alive.
  if (version >= 2) {
    uint64_t dead_count = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &dead_count));
    RecordId prev = -1;
    for (uint64_t k = 0; k < dead_count; ++k) {
      RecordId id = kInvalidRecord;
      GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
      if (id <= prev || static_cast<size_t>(id) >= n) {
        return Status::IOError(
            "corrupted checkpoint: tombstone ids must be strictly ascending "
            "record ids");
      }
      pipeline->alive_[static_cast<size_t>(id)] = 0;
      prev = id;
    }
    pipeline->num_dead_ = static_cast<size_t>(dead_count);
  }

  GRALMATCH_RETURN_NOT_OK(pipeline->id_index_.LoadState(reader));
  GRALMATCH_RETURN_NOT_OK(pipeline->token_index_.LoadState(reader));
  if (pipeline->id_index_.num_records() != n ||
      pipeline->token_index_.num_records() != n) {
    return Status::IOError(
        "corrupted checkpoint: blocking index record counts disagree with "
        "the record table");
  }
  // LoadState defaults every record to alive; the max-df cap tracks the
  // live count, which only the pipeline's tombstone set knows.
  pipeline->token_index_.SetNumLive(n - pipeline->num_dead_);

  GRALMATCH_RETURN_NOT_OK(reader->ReadString(&pipeline->fingerprint_));
  // Pair ids feed unchecked records_.at() lookups in Ingest, so they are
  // range-validated here like every other record reference. Tombstoned
  // records retract every pair they touch, so a candidate, cached score or
  // positive referencing one is corruption.
  auto check_pair = [n, &pipeline](const RecordPair& pair) {
    if (pair.a < 0 || pair.b < 0 || static_cast<size_t>(pair.a) >= n ||
        static_cast<size_t>(pair.b) >= n) {
      return Status::IOError("corrupted checkpoint: record pair out of range");
    }
    if (!pipeline->alive_[static_cast<size_t>(pair.a)] ||
        !pipeline->alive_[static_cast<size_t>(pair.b)]) {
      return Status::IOError(
          "corrupted checkpoint: record pair references a tombstoned record");
    }
    return Status::OK();
  };
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(12, &count));
  pipeline->candidate_prov_.reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordPair pair;
    uint32_t prov = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.a));
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.b));
    GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&prov));
    GRALMATCH_RETURN_NOT_OK(check_pair(pair));
    pipeline->candidate_prov_[pair] = prov;
  }
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(16, &count));
  pipeline->score_cache_.reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordPair pair;
    double score = 0.0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.a));
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.b));
    GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&score));
    GRALMATCH_RETURN_NOT_OK(check_pair(pair));
    pipeline->score_cache_[pair] = score;
  }
  std::vector<RecordPair> positives;
  GRALMATCH_RETURN_NOT_OK(ReadRecordPairs(reader, n, &positives));
  pipeline->positives_.insert(positives.begin(), positives.end());

  // Every current candidate has a cached score and every positive pair is a
  // current candidate — Ingest() dereferences both unconditionally, so a
  // checkpoint violating either invariant must be rejected here, not crash
  // there.
  const uint32_t known_bits =
      (config.use_id_blocker ? kBlockerIdOverlap : 0u) |
      (config.use_token_blocker ? kBlockerTokenOverlap : 0u);
  for (const auto& [pair, prov] : pipeline->candidate_prov_) {
    if (prov == 0 || (prov & ~known_bits) != 0) {
      return Status::IOError(
          "corrupted checkpoint: candidate provenance bits disagree with the "
          "configured blockers");
    }
    if (!pipeline->score_cache_.count(pair)) {
      return Status::IOError(
          "corrupted checkpoint: candidate pair without a cached score");
    }
  }
  for (const RecordPair& pair : pipeline->positives_) {
    if (!pipeline->candidate_prov_.count(pair)) {
      return Status::IOError(
          "corrupted checkpoint: positive pair missing from the candidate "
          "set");
    }
  }
  // The candidate set must be exactly what the restored blocking indexes
  // currently produce, bit by bit: a future AddRecords retraction looks the
  // pair up in candidate_prov_ unchecked, so an index/pipeline mismatch
  // would dereference end().
  auto check_index = [&pipeline](const std::vector<RecordPair>& index_pairs,
                                 uint32_t bit) {
    size_t with_bit = 0;
    for (const auto& [pair, prov] : pipeline->candidate_prov_) {
      (void)pair;
      if (prov & bit) ++with_bit;
    }
    if (with_bit != index_pairs.size()) {
      return Status::IOError(
          "corrupted checkpoint: blocking index pair set disagrees with the "
          "candidate provenance");
    }
    for (const RecordPair& pair : index_pairs) {
      auto it = pipeline->candidate_prov_.find(pair);
      if (it == pipeline->candidate_prov_.end() || (it->second & bit) == 0) {
        return Status::IOError(
            "corrupted checkpoint: blocking index pair missing from the "
            "candidate set");
      }
    }
    return Status::OK();
  };
  if (config.use_id_blocker) {
    GRALMATCH_RETURN_NOT_OK(
        check_index(pipeline->id_index_.CurrentPairs(), kBlockerIdOverlap));
  }
  if (config.use_token_blocker) {
    GRALMATCH_RETURN_NOT_OK(check_index(pipeline->token_index_.CurrentPairs(),
                                        kBlockerTokenOverlap));
  }
  // An empty fingerprint means no Ingest ever ran (Ingest sets it
  // unconditionally), so every other piece of state must be empty too —
  // otherwise cached scores could never be invalidated by a fingerprint
  // change.
  if (pipeline->fingerprint_.empty() &&
      (n != 0 || !pipeline->candidate_prov_.empty() ||
       !pipeline->score_cache_.empty() || !pipeline->positives_.empty())) {
    return Status::IOError(
        "corrupted checkpoint: pre-ingest fingerprint with non-empty state");
  }

  GRALMATCH_RETURN_NOT_OK(pipeline->store_.Load(
      reader, n, [&pipeline](const RecordPair& pair) {
        return pipeline->positives_.count(pair) > 0;
      }));
  // A tombstoned record has lost every positive edge, so it must have left
  // its component (FillSnapshot relies on this to skip dead singletons).
  for (size_t r = 0; r < n; ++r) {
    if (!pipeline->alive_[r] && pipeline->store_.comp_of_node()[r] >= 0) {
      return Status::IOError(
          "corrupted checkpoint: tombstoned record still inside a component");
    }
  }

  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  pipeline->total_matcher_calls_ = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&u));
  pipeline->total_cache_hits_ = static_cast<size_t>(u);
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&pipeline->scoring_seconds_total_));
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&pipeline->cleanup_seconds_total_));
  return pipeline;
}

}  // namespace gralmatch
