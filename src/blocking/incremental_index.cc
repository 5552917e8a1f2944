#include "blocking/incremental_index.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "exec/parallel.h"
#include "text/normalize.h"

namespace gralmatch {

namespace {

/// Serialize a pair->refcount map in sorted pair order (deterministic bytes).
void WriteRefcounts(
    const std::unordered_map<RecordPair, uint32_t, RecordPairHash>& refcount,
    BinaryWriter* writer) {
  std::vector<std::pair<RecordPair, uint32_t>> entries(refcount.begin(),
                                                       refcount.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer->WriteU64(entries.size());
  for (const auto& [pair, count] : entries) {
    writer->WriteI32(pair.a);
    writer->WriteI32(pair.b);
    writer->WriteU32(count);
  }
}

/// Read a pair->refcount map whose record ids must lie in [0, limit) and
/// whose counts must be positive (zero entries are never stored).
Status ReadRefcounts(
    BinaryReader* reader, size_t limit,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* refcount) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(12, &count));
  refcount->clear();
  refcount->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordPair pair;
    uint32_t refs = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.a));
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&pair.b));
    GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&refs));
    if (pair.a < 0 || pair.b < 0 || static_cast<size_t>(pair.a) >= limit ||
        static_cast<size_t>(pair.b) >= limit || refs == 0) {
      return Status::IOError("corrupted index state: bad refcount entry");
    }
    (*refcount)[pair] = refs;
  }
  return Status::OK();
}

void WriteRecordIds(const std::vector<RecordId>& ids, BinaryWriter* writer) {
  writer->WriteU64(ids.size());
  for (RecordId id : ids) writer->WriteI32(id);
}

/// Read a RecordId vector whose entries must lie in [0, limit).
Status ReadRecordIds(BinaryReader* reader, size_t limit,
                     std::vector<RecordId>* ids) {
  uint64_t count = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
  ids->clear();
  ids->reserve(static_cast<size_t>(count));
  for (uint64_t k = 0; k < count; ++k) {
    RecordId id = kInvalidRecord;
    GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&id));
    if (id < 0 || static_cast<size_t>(id) >= limit) {
      return Status::IOError("corrupted index state: record id " +
                             std::to_string(id) + " out of range");
    }
    ids->push_back(id);
  }
  return Status::OK();
}

/// Finalize a refcount-delta pass: compare each touched pair's pre-batch
/// refcount snapshot against its current one, emit membership transitions,
/// and drop zero entries. Deltas are sorted so callers see a deterministic
/// order regardless of hash-map iteration.
CandidateDelta FinalizeDelta(
    const std::unordered_map<RecordPair, uint32_t, RecordPairHash>& old_ref,
    std::unordered_map<RecordPair, uint32_t, RecordPairHash>* refcount) {
  CandidateDelta delta;
  for (const auto& [pair, old_count] : old_ref) {
    auto it = refcount->find(pair);
    const uint32_t now = it == refcount->end() ? 0 : it->second;
    if (old_count == 0 && now > 0) {
      delta.added.push_back(pair);
    } else if (old_count > 0 && now == 0) {
      delta.removed.push_back(pair);
    }
    if (now == 0 && it != refcount->end()) refcount->erase(it);
  }
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  return delta;
}

}  // namespace

// ---------------------------------------------------------------------------
// Token Overlap
// ---------------------------------------------------------------------------

std::vector<RecordId> IncrementalTokenOverlapIndex::RankRecord(
    const RecordTable& records, RecordId record) const {
  std::unordered_map<RecordId, uint32_t> overlap;
  const SourceId source = records.at(record).source();
  for (int32_t tid : record_tokens_[static_cast<size_t>(record)]) {
    const TokenInfo& info = tokens_[static_cast<size_t>(tid)];
    if (info.df < 2 || info.df > max_df_) continue;
    for (RecordId other : info.postings) {
      if (other == record) continue;
      if (records.at(other).source() == source) continue;
      ++overlap[other];
    }
  }
  std::vector<std::pair<RecordId, uint32_t>> ranked;
  ranked.reserve(overlap.size());
  for (const auto& [rid, cnt] : overlap) {
    if (cnt >= options_.min_overlap) ranked.emplace_back(rid, cnt);
  }
  const size_t keep = std::min(options_.top_n, ranked.size());
  auto by_count_then_id = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(keep),
                    ranked.end(), by_count_then_id);
  std::vector<RecordId> kept;
  kept.reserve(keep);
  for (size_t k = 0; k < keep; ++k) kept.push_back(ranked[k].first);
  return kept;
}

CandidateDelta IncrementalTokenOverlapIndex::AddRecords(
    const RecordTable& records, ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};

  // Tokenize the new records (deduplicated tokens); records are independent,
  // so this fans out.
  std::vector<std::vector<std::string>> new_tokens(new_n - old_n);
  ParallelFor(
      pool, 0, new_tokens.size(),
      [&](size_t k) {
        auto& toks = new_tokens[k];
        toks = TokenizeContentWords(
            records.at(static_cast<RecordId>(old_n + k)).AllText());
        std::sort(toks.begin(), toks.end());
        toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
      },
      /*grain=*/32);

  // Intern tokens and update document frequencies / postings in place,
  // remembering each touched token's pre-batch df.
  const uint32_t old_max_df = max_df_;
  std::unordered_map<int32_t, uint32_t> old_df;
  record_tokens_.resize(new_n);
  for (size_t k = 0; k < new_tokens.size(); ++k) {
    const RecordId rid = static_cast<RecordId>(old_n + k);
    auto& ids = record_tokens_[static_cast<size_t>(rid)];
    ids.reserve(new_tokens[k].size());
    for (auto& tok : new_tokens[k]) {
      auto [it, inserted] =
          token_id_.emplace(std::move(tok), static_cast<int32_t>(tokens_.size()));
      if (inserted) tokens_.emplace_back();
      const int32_t tid = it->second;
      TokenInfo& info = tokens_[static_cast<size_t>(tid)];
      old_df.emplace(tid, info.df);  // keeps the first (pre-batch) value
      if (info.df > 0) df_buckets_[info.df].erase(tid);
      ++info.df;
      df_buckets_[info.df].insert(tid);
      info.postings.push_back(rid);
      ids.push_back(tid);
    }
  }
  num_records_ = new_n;
  num_live_ += new_tokens.size();
  // The df cap is a fraction of the *live* record count: a from-scratch run
  // on the survivors never sees the retracted records at all.
  max_df_ = static_cast<uint32_t>(options_.max_token_df *
                                  static_cast<double>(num_live_)) +
            1;

  // Dirty records: the new records, plus holders of any token whose
  // postings or eligibility changed. A token matters only while eligible
  // (2 <= df <= max_df) on at least one side of the batch; tokens that were
  // and remain out of bounds cannot change any ranking.
  std::vector<char> dirty(new_n, 0);
  for (size_t r = old_n; r < new_n; ++r) dirty[r] = 1;
  auto mark_holders = [&](int32_t tid) {
    for (RecordId r : tokens_[static_cast<size_t>(tid)].postings) {
      dirty[static_cast<size_t>(r)] = 1;
    }
  };
  for (const auto& [tid, df_before] : old_df) {
    const uint32_t df_now = tokens_[static_cast<size_t>(tid)].df;
    const bool was_eligible = df_before >= 2 && df_before <= old_max_df;
    const bool is_eligible = df_now >= 2 && df_now <= max_df_;
    if (was_eligible || is_eligible) mark_holders(tid);
  }
  // The max-df cap rises with the record count: untouched tokens with df in
  // (old cap, new cap] were over the cap and are now re-admitted.
  for (uint32_t d = old_max_df + 1; d <= max_df_; ++d) {
    auto bucket = df_buckets_.find(d);
    if (bucket == df_buckets_.end()) continue;
    for (int32_t tid : bucket->second) {
      if (!old_df.count(tid)) mark_holders(tid);
    }
  }

  // Re-rank every dirty record into its own slot (deterministic), then diff
  // against its previous top-n list serially.
  std::vector<RecordId> dirty_ids;
  for (size_t r = 0; r < new_n; ++r) {
    if (dirty[r]) dirty_ids.push_back(static_cast<RecordId>(r));
  }
  std::vector<std::vector<RecordId>> new_kept(dirty_ids.size());
  ParallelFor(
      pool, 0, dirty_ids.size(),
      [&](size_t k) { new_kept[k] = RankRecord(records, dirty_ids[k]); },
      /*grain=*/4);

  kept_.resize(new_n);
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  auto bump = [&](const RecordPair& pair, int delta) {
    uint32_t& count = refcount_[pair];
    old_ref.emplace(pair, count);  // snapshot the pre-batch value once
    count = static_cast<uint32_t>(static_cast<int>(count) + delta);
  };
  for (size_t k = 0; k < dirty_ids.size(); ++k) {
    const RecordId i = dirty_ids[k];
    const auto& before = kept_[static_cast<size_t>(i)];
    const auto& after = new_kept[k];
    for (RecordId o : before) {
      if (std::find(after.begin(), after.end(), o) == after.end()) {
        bump(RecordPair(i, o), -1);
      }
    }
    for (RecordId o : after) {
      if (std::find(before.begin(), before.end(), o) == before.end()) {
        bump(RecordPair(i, o), +1);
      }
    }
    kept_[static_cast<size_t>(i)] = std::move(new_kept[k]);
  }
  return FinalizeDelta(old_ref, &refcount_);
}

CandidateDelta IncrementalTokenOverlapIndex::RemoveRecords(
    const RecordTable& records, const std::vector<RecordId>& removed_ids,
    ThreadPool* pool) {
  if (removed_ids.empty()) return {};
  std::vector<char> removed(num_records_, 0);
  for (RecordId r : removed_ids) removed[static_cast<size_t>(r)] = 1;

  // Release the removed records' tokens: each df drops, its df-bucket
  // membership moves, and the record leaves the postings (which therefore
  // keep listing exactly the live holders). `old_df` snapshots each touched
  // token's pre-removal df once.
  const uint32_t old_max_df = max_df_;
  std::unordered_map<int32_t, uint32_t> old_df;
  for (RecordId r : removed_ids) {
    for (int32_t tid : record_tokens_[static_cast<size_t>(r)]) {
      TokenInfo& info = tokens_[static_cast<size_t>(tid)];
      old_df.emplace(tid, info.df);
      df_buckets_[info.df].erase(tid);
      --info.df;
      if (info.df > 0) df_buckets_[info.df].insert(tid);
      info.postings.erase(
          std::remove(info.postings.begin(), info.postings.end(), r),
          info.postings.end());
    }
  }
  num_live_ -= removed_ids.size();
  max_df_ = static_cast<uint32_t>(options_.max_token_df *
                                  static_cast<double>(num_live_)) +
            1;

  // Dirty records: live holders of any token whose postings or eligibility
  // changed. The cap falls with the live count, so untouched tokens with df
  // in (new cap, old cap] drop *out* of eligibility — the mirror image of
  // the rising-cap re-admission scan in AddRecords.
  std::vector<char> dirty(num_records_, 0);
  auto mark_holders = [&](int32_t tid) {
    for (RecordId r : tokens_[static_cast<size_t>(tid)].postings) {
      dirty[static_cast<size_t>(r)] = 1;
    }
  };
  for (const auto& [tid, df_before] : old_df) {
    const uint32_t df_now = tokens_[static_cast<size_t>(tid)].df;
    const bool was_eligible = df_before >= 2 && df_before <= old_max_df;
    const bool is_eligible = df_now >= 2 && df_now <= max_df_;
    if (was_eligible || is_eligible) mark_holders(tid);
  }
  for (uint32_t d = max_df_ + 1; d <= old_max_df; ++d) {
    auto bucket = df_buckets_.find(d);
    if (bucket == df_buckets_.end()) continue;
    for (int32_t tid : bucket->second) {
      if (!old_df.count(tid)) mark_holders(tid);
    }
  }

  std::vector<RecordId> dirty_ids;
  for (size_t r = 0; r < num_records_; ++r) {
    if (dirty[r]) dirty_ids.push_back(static_cast<RecordId>(r));
  }
  std::vector<std::vector<RecordId>> new_kept(dirty_ids.size());
  ParallelFor(
      pool, 0, dirty_ids.size(),
      [&](size_t k) { new_kept[k] = RankRecord(records, dirty_ids[k]); },
      /*grain=*/4);

  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  auto bump = [&](const RecordPair& pair, int delta) {
    uint32_t& count = refcount_[pair];
    old_ref.emplace(pair, count);
    count = static_cast<uint32_t>(static_cast<int>(count) + delta);
  };
  // The removed records' own kept-lists retract wholesale; any live record
  // keeping a removed one shares a (touched, previously eligible) token with
  // it, so it is dirty and its re-ranking retracts the other half.
  for (RecordId r : removed_ids) {
    for (RecordId o : kept_[static_cast<size_t>(r)]) {
      bump(RecordPair(r, o), -1);
    }
    kept_[static_cast<size_t>(r)].clear();
    record_tokens_[static_cast<size_t>(r)].clear();
  }
  for (size_t k = 0; k < dirty_ids.size(); ++k) {
    const RecordId i = dirty_ids[k];
    const auto& before = kept_[static_cast<size_t>(i)];
    const auto& after = new_kept[k];
    for (RecordId o : before) {
      if (std::find(after.begin(), after.end(), o) == after.end()) {
        bump(RecordPair(i, o), -1);
      }
    }
    for (RecordId o : after) {
      if (std::find(before.begin(), before.end(), o) == before.end()) {
        bump(RecordPair(i, o), +1);
      }
    }
    kept_[static_cast<size_t>(i)] = std::move(new_kept[k]);
  }
  return FinalizeDelta(old_ref, &refcount_);
}

std::vector<RecordPair> IncrementalTokenOverlapIndex::CurrentPairs() const {
  std::vector<RecordPair> out;
  out.reserve(refcount_.size());
  for (const auto& [pair, count] : refcount_) out.push_back(pair);
  return out;
}

void IncrementalTokenOverlapIndex::SaveState(BinaryWriter* writer) const {
  writer->WriteU64(options_.top_n);
  writer->WriteU64(options_.min_overlap);
  writer->WriteDouble(options_.max_token_df);
  writer->WriteU64(num_records_);
  writer->WriteU32(max_df_);

  // Tokens in id order: interning order matters because the (count desc,
  // id asc) ranking tie-break compares token-holder record ids — it must
  // survive the round trip exactly.
  std::vector<const std::string*> token_of_id(tokens_.size(), nullptr);
  for (const auto& [text, tid] : token_id_) {
    token_of_id[static_cast<size_t>(tid)] = &text;
  }
  writer->WriteU64(tokens_.size());
  for (size_t tid = 0; tid < tokens_.size(); ++tid) {
    writer->WriteString(*token_of_id[tid]);
    writer->WriteU32(tokens_[tid].df);
    WriteRecordIds(tokens_[tid].postings, writer);
  }

  writer->WriteU64(record_tokens_.size());
  for (const auto& ids : record_tokens_) {
    writer->WriteU64(ids.size());
    for (int32_t tid : ids) writer->WriteI32(tid);
  }
  writer->WriteU64(kept_.size());
  for (const auto& ids : kept_) WriteRecordIds(ids, writer);
  WriteRefcounts(refcount_, writer);
}

Status IncrementalTokenOverlapIndex::LoadState(BinaryReader* reader) {
  uint64_t top_n = 0, min_overlap = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&top_n));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&min_overlap));
  options_.top_n = static_cast<size_t>(top_n);
  options_.min_overlap = static_cast<size_t>(min_overlap);
  GRALMATCH_RETURN_NOT_OK(reader->ReadDouble(&options_.max_token_df));
  options_.num_threads = 1;  // ignored by this class; pools come via callers

  uint64_t num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&num_records));
  num_records_ = static_cast<size_t>(num_records);
  // The serialized state predates tombstones; the owning pipeline restores
  // the live count via SetNumLive once it knows the tombstone set.
  num_live_ = num_records_;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&max_df_));

  uint64_t num_tokens = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(13, &num_tokens));
  token_id_.clear();
  tokens_.clear();
  tokens_.reserve(static_cast<size_t>(num_tokens));
  df_buckets_.clear();
  for (uint64_t tid = 0; tid < num_tokens; ++tid) {
    std::string text;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&text));
    TokenInfo info;
    GRALMATCH_RETURN_NOT_OK(reader->ReadU32(&info.df));
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &info.postings));
    auto [it, inserted] =
        token_id_.emplace(std::move(text), static_cast<int32_t>(tid));
    (void)it;
    if (!inserted) {
      return Status::IOError("corrupted token index: duplicate token text");
    }
    // Rebuild the df-bucket membership from its defining invariant:
    // df_buckets_[d] holds exactly the tokens whose current df is d.
    if (info.df > 0) df_buckets_[info.df].insert(static_cast<int32_t>(tid));
    tokens_.push_back(std::move(info));
  }

  uint64_t rows = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &rows));
  if (rows != num_records_) {
    return Status::IOError("corrupted token index: per-record token rows " +
                           std::to_string(rows) + " != record count " +
                           std::to_string(num_records_));
  }
  record_tokens_.assign(static_cast<size_t>(rows), {});
  for (auto& ids : record_tokens_) {
    uint64_t count = 0;
    GRALMATCH_RETURN_NOT_OK(reader->ReadCount(4, &count));
    ids.reserve(static_cast<size_t>(count));
    for (uint64_t k = 0; k < count; ++k) {
      int32_t tid = -1;
      GRALMATCH_RETURN_NOT_OK(reader->ReadI32(&tid));
      if (tid < 0 || static_cast<size_t>(tid) >= tokens_.size()) {
        return Status::IOError("corrupted token index: token id " +
                               std::to_string(tid) + " out of range");
      }
      ids.push_back(tid);
    }
  }

  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(8, &rows));
  if (rows != num_records_) {
    return Status::IOError("corrupted token index: kept-list rows " +
                           std::to_string(rows) + " != record count " +
                           std::to_string(num_records_));
  }
  kept_.assign(static_cast<size_t>(rows), {});
  for (auto& ids : kept_) {
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &ids));
  }
  return ReadRefcounts(reader, num_records_, &refcount_);
}

// ---------------------------------------------------------------------------
// ID Overlap
// ---------------------------------------------------------------------------

namespace {

/// Cross-source pairs of the first `count` holders of one identifier bucket
/// (sorted, deduplicated); empty when the bucket is outside [2, max_bucket].
std::vector<RecordPair> BucketPairs(const RecordTable& records,
                                    const std::vector<RecordId>& holders,
                                    size_t count, size_t max_bucket) {
  std::vector<RecordPair> out;
  if (count < 2 || count > max_bucket) return out;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      if (holders[i] == holders[j]) continue;
      if (records.at(holders[i]).source() == records.at(holders[j]).source()) {
        continue;
      }
      out.emplace_back(holders[i], holders[j]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A record's identifier values, in attribute order with repeats preserved
/// (a record carrying one value under several attributes holds that
/// bucket once per attribute).
std::vector<std::string> IdentifierValues(const Record& record) {
  std::vector<std::string> values;
  for (const auto& attr : IdentifierAttributes()) {
    for (auto& value : record.GetMulti(attr)) {
      values.push_back(std::move(value));
    }
  }
  return values;
}

}  // namespace

CandidateDelta IncrementalIdOverlapIndex::AddRecords(const RecordTable& records,
                                                     ThreadPool* pool) {
  const size_t old_n = num_records_;
  const size_t new_n = records.size();
  if (new_n <= old_n) return {};

  // Append the new holders, remembering each touched bucket's pre-batch
  // size. Bucket vectors are stable across rehashing (node-based map), so
  // pointers key the touched set safely.
  std::unordered_map<const std::vector<RecordId>*, size_t> touched;
  for (size_t r = old_n; r < new_n; ++r) {
    for (const auto& value :
         IdentifierValues(records.at(static_cast<RecordId>(r)))) {
      std::vector<RecordId>& holders = index_[value];
      touched.emplace(&holders, holders.size());
      holders.push_back(static_cast<RecordId>(r));
    }
  }
  num_records_ = new_n;

  // Per touched bucket, diff the pre-batch contribution against the current
  // one (each bucket ranks into its own slot; the merge below is serial).
  struct BucketDiff {
    const std::vector<RecordId>* holders;
    size_t old_count;
    std::vector<RecordPair> before, after;
  };
  std::vector<BucketDiff> diffs;
  diffs.reserve(touched.size());
  for (const auto& [holders, old_count] : touched) {
    diffs.push_back({holders, old_count, {}, {}});
  }
  ParallelFor(
      pool, 0, diffs.size(),
      [&](size_t k) {
        BucketDiff& d = diffs[k];
        d.before = BucketPairs(records, *d.holders, d.old_count, max_bucket_);
        d.after =
            BucketPairs(records, *d.holders, d.holders->size(), max_bucket_);
      },
      /*grain=*/4);

  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  auto bump = [&](const RecordPair& pair, int delta) {
    uint32_t& count = refcount_[pair];
    old_ref.emplace(pair, count);
    count = static_cast<uint32_t>(static_cast<int>(count) + delta);
  };
  for (const BucketDiff& d : diffs) {
    // Both lists are sorted unique; emit set differences.
    for (const RecordPair& p : d.before) {
      if (!std::binary_search(d.after.begin(), d.after.end(), p)) bump(p, -1);
    }
    for (const RecordPair& p : d.after) {
      if (!std::binary_search(d.before.begin(), d.before.end(), p)) bump(p, +1);
    }
  }
  return FinalizeDelta(old_ref, &refcount_);
}

CandidateDelta IncrementalIdOverlapIndex::RemoveRecords(
    const RecordTable& records, const std::vector<RecordId>& removed_ids,
    ThreadPool* pool) {
  if (removed_ids.empty()) return {};

  // Re-extract each removed record's keys from its (retained) payload,
  // snapshot every touched bucket's pre-removal holders once, then erase
  // the record's occurrences in place — surviving holder order is
  // preserved, and emptied buckets stay (their residue is what future
  // diffs slice against, exactly as an overflowed bucket's is).
  struct BucketDiff {
    const std::vector<RecordId>* holders;
    std::vector<RecordId> old_holders;
    std::vector<RecordPair> before, after;
  };
  std::vector<BucketDiff> diffs;
  std::unordered_map<const std::vector<RecordId>*, size_t> touched;
  for (RecordId r : removed_ids) {
    for (const auto& value : IdentifierValues(records.at(r))) {
      auto it = index_.find(value);
      if (it == index_.end()) continue;
      std::vector<RecordId>& holders = it->second;
      auto [slot, inserted] = touched.emplace(&holders, diffs.size());
      if (inserted) diffs.push_back({&holders, holders, {}, {}});
      (void)slot;
      holders.erase(std::remove(holders.begin(), holders.end(), r),
                    holders.end());
    }
  }

  ParallelFor(
      pool, 0, diffs.size(),
      [&](size_t k) {
        BucketDiff& d = diffs[k];
        d.before = BucketPairs(records, d.old_holders, d.old_holders.size(),
                               max_bucket_);
        d.after =
            BucketPairs(records, *d.holders, d.holders->size(), max_bucket_);
      },
      /*grain=*/4);

  std::unordered_map<RecordPair, uint32_t, RecordPairHash> old_ref;
  auto bump = [&](const RecordPair& pair, int delta) {
    uint32_t& count = refcount_[pair];
    old_ref.emplace(pair, count);
    count = static_cast<uint32_t>(static_cast<int>(count) + delta);
  };
  for (const BucketDiff& d : diffs) {
    for (const RecordPair& p : d.before) {
      if (!std::binary_search(d.after.begin(), d.after.end(), p)) bump(p, -1);
    }
    for (const RecordPair& p : d.after) {
      if (!std::binary_search(d.before.begin(), d.before.end(), p)) bump(p, +1);
    }
  }
  return FinalizeDelta(old_ref, &refcount_);
}

std::vector<RecordPair> IncrementalIdOverlapIndex::CurrentPairs() const {
  std::vector<RecordPair> out;
  out.reserve(refcount_.size());
  for (const auto& [pair, count] : refcount_) out.push_back(pair);
  return out;
}

void IncrementalIdOverlapIndex::SaveState(BinaryWriter* writer) const {
  writer->WriteU64(max_bucket_);
  writer->WriteU64(num_records_);
  // Buckets in sorted value order for deterministic bytes; holder lists
  // verbatim (their insertion order is the prefix future diffs slice on).
  std::vector<const std::string*> values;
  values.reserve(index_.size());
  for (const auto& [value, holders] : index_) values.push_back(&value);
  std::sort(values.begin(), values.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  writer->WriteU64(values.size());
  for (const std::string* value : values) {
    writer->WriteString(*value);
    WriteRecordIds(index_.at(*value), writer);
  }
  WriteRefcounts(refcount_, writer);
}

Status IncrementalIdOverlapIndex::LoadState(BinaryReader* reader) {
  uint64_t max_bucket = 0, num_records = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&max_bucket));
  GRALMATCH_RETURN_NOT_OK(reader->ReadU64(&num_records));
  max_bucket_ = static_cast<size_t>(max_bucket);
  num_records_ = static_cast<size_t>(num_records);

  uint64_t buckets = 0;
  GRALMATCH_RETURN_NOT_OK(reader->ReadCount(16, &buckets));
  index_.clear();
  index_.reserve(static_cast<size_t>(buckets));
  for (uint64_t k = 0; k < buckets; ++k) {
    std::string value;
    GRALMATCH_RETURN_NOT_OK(reader->ReadString(&value));
    std::vector<RecordId> holders;
    GRALMATCH_RETURN_NOT_OK(ReadRecordIds(reader, num_records_, &holders));
    auto [it, inserted] = index_.emplace(std::move(value), std::move(holders));
    (void)it;
    if (!inserted) {
      return Status::IOError("corrupted id index: duplicate identifier value");
    }
  }
  return ReadRefcounts(reader, num_records_, &refcount_);
}

}  // namespace gralmatch
