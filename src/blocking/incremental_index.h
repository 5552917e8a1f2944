#ifndef GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_
#define GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_

/// \file incremental_index.h
/// Incremental blocking indexes for streaming ingestion: the Token Overlap
/// and ID Overlap blockings maintained as in-place updatable inverted
/// indexes. Each AddRecords call absorbs a batch of appended records and
/// each RemoveRecords call retracts previously added ones; both return the
/// exact delta of the blocker's candidate-pair set, with the recomputation
/// scoped to the records the mutation can actually affect (dirty records /
/// touched identifier buckets).
///
/// Invariant: after any sequence of AddRecords/RemoveRecords calls, the
/// current pair set equals the batch blocker run on the live records. The
/// batch blockers (TokenOverlapBlocker, securities-mode IdOverlapBlocker)
/// delegate to these indexes, so the equivalence holds by construction —
/// there is one implementation of the blocking semantics, not two.
///
/// Note that both blockings are *not* monotone in their inputs: an
/// identifier bucket that grows past the bucket cap retracts every pair it
/// previously produced, a token crossing the document-frequency bounds
/// changes overlap counts globally, and a new record can displace an old one
/// from a record's top-n list. This is why AddRecords reports removed pairs
/// as well as added ones.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/status.h"
#include "data/record.h"

namespace gralmatch {

class BinaryReader;
class BinaryWriter;
class ThreadPool;

/// Candidate-pair membership changes produced by one AddRecords or
/// RemoveRecords call. `added` pairs entered the blocker's current candidate
/// set, `removed` pairs left it; both are sorted ascending and disjoint.
struct CandidateDelta {
  std::vector<RecordPair> added;
  std::vector<RecordPair> removed;
};

/// \brief In-place updatable Token Overlap blocking (§5.3.1 semantics).
///
/// Maintains per-record token sets, document frequencies and postings. On
/// each batch, only dirty records are re-ranked: the new records themselves,
/// records sharing an eligible token with a new record, and records holding
/// a token whose document-frequency eligibility flipped (including tokens
/// re-admitted because the max-df cap rises with the record count).
class IncrementalTokenOverlapIndex {
 public:
  IncrementalTokenOverlapIndex() : options_() {}
  /// `options.num_threads` is ignored; pass a pool to AddRecords instead.
  explicit IncrementalTokenOverlapIndex(TokenOverlapBlocker::Options options)
      : options_(options) {}

  /// Absorb records [num_records(), records.size()). `records` must contain
  /// every previously added record unchanged; `pool` (optional) fans out
  /// tokenization and re-ranking without affecting the result.
  CandidateDelta AddRecords(const RecordTable& records,
                            ThreadPool* pool = nullptr);

  /// Retract previously added records. Each id in `removed_ids` (in range,
  /// unique, not yet removed) gives up its tokens: document frequencies
  /// drop, the max-df cap is recomputed from the live-record count, and
  /// every record whose ranking could change — holders of a touched or
  /// eligibility-flipped token, including tokens pushed back *under* the
  /// falling cap — is re-ranked. `records` must still hold the removed
  /// records' payloads (the table is append-only; removal is logical). The
  /// delta may contain added pairs: retraction is not monotone either, a df
  /// falling back into [2, max_df] re-admits its token.
  CandidateDelta RemoveRecords(const RecordTable& records,
                               const std::vector<RecordId>& removed_ids,
                               ThreadPool* pool = nullptr);

  /// Current candidate pairs (unsorted).
  std::vector<RecordPair> CurrentPairs() const;

  size_t num_records() const { return num_records_; }
  /// Live (non-retracted) records; the max-df cap is a fraction of this
  /// count, not of the table size.
  size_t num_live() const { return num_live_; }
  /// Restore the live count after LoadState (which defaults every record to
  /// alive — the owning pipeline carries the tombstone set).
  void SetNumLive(size_t live) { num_live_ = live; }
  size_t num_tokens() const { return tokens_.size(); }

  /// Serialize the complete index state (options included) into `writer`.
  /// Map-backed members are emitted in sorted order, so the bytes are a
  /// deterministic function of the logical state.
  void SaveState(BinaryWriter* writer) const;

  /// Restore the state written by SaveState, replacing the current contents.
  /// The df-bucket structure is rebuilt from the per-token document
  /// frequencies (its defining invariant) rather than round-tripped. Returns
  /// an error on truncated or inconsistent input, leaving the index in an
  /// unspecified state that must be discarded.
  Status LoadState(BinaryReader* reader);

 private:
  struct TokenInfo {
    uint32_t df = 0;
    std::vector<RecordId> postings;  ///< holders, ascending record id
  };

  /// Top-n other-source records by token overlap for one record, using the
  /// same eligibility, min-overlap and (count desc, id asc) tie-break rules
  /// as the batch blocker.
  std::vector<RecordId> RankRecord(const RecordTable& records,
                                   RecordId record) const;

  TokenOverlapBlocker::Options options_;
  size_t num_records_ = 0;
  size_t num_live_ = 0;
  uint32_t max_df_ = 1;
  std::unordered_map<std::string, int32_t> token_id_;
  std::vector<TokenInfo> tokens_;
  /// Token ids per record (unique).
  std::vector<std::vector<int32_t>> record_tokens_;
  /// Current top-n candidate list per record.
  std::vector<std::vector<RecordId>> kept_;
  /// Pair -> number of kept-lists currently containing it (1 or 2).
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> refcount_;
  /// df value -> token ids at that df, for max-df-crossing detection. Only
  /// membership matters (iteration feeds boolean dirty flags), so the
  /// unordered iteration never reaches the output.
  std::unordered_map<uint32_t, std::unordered_set<int32_t>> df_buckets_;
};

/// \brief In-place updatable ID Overlap blocking (securities mode): records
/// sharing an identifier value become candidates while the value's bucket
/// stays within [2, max_bucket] holders. Buckets growing past the cap
/// retract their pairs, exactly as a from-scratch run would drop them.
class IncrementalIdOverlapIndex {
 public:
  IncrementalIdOverlapIndex() = default;
  explicit IncrementalIdOverlapIndex(size_t max_bucket)
      : max_bucket_(max_bucket) {}

  /// Absorb records [num_records(), records.size()); same contract as
  /// IncrementalTokenOverlapIndex::AddRecords.
  CandidateDelta AddRecords(const RecordTable& records,
                            ThreadPool* pool = nullptr);

  /// Retract previously added records: each removed id's identifier values
  /// release their holder entries (surviving holder order preserved, empty
  /// buckets retained), and every touched bucket re-derives its pair
  /// contribution — a bucket shrinking back into [2, max_bucket] holders
  /// *re-admits* pairs it had overflowed away. Preconditions as for
  /// IncrementalTokenOverlapIndex::RemoveRecords.
  CandidateDelta RemoveRecords(const RecordTable& records,
                               const std::vector<RecordId>& removed_ids,
                               ThreadPool* pool = nullptr);

  /// Current candidate pairs (unsorted).
  std::vector<RecordPair> CurrentPairs() const;

  size_t num_records() const { return num_records_; }

  /// Serialize / restore the complete index state; same contract as the
  /// token index's SaveState/LoadState. Bucket holder order is preserved
  /// verbatim (it determines how future batches diff against the past).
  void SaveState(BinaryWriter* writer) const;
  Status LoadState(BinaryReader* reader);

 private:
  size_t max_bucket_ = IdOverlapBlocker::kMaxBucket;
  size_t num_records_ = 0;
  /// Identifier value -> holder record ids (insertion order, may repeat a
  /// record that carries the value under several attributes).
  std::unordered_map<std::string, std::vector<RecordId>> index_;
  /// Pair -> number of identifier buckets currently producing it.
  std::unordered_map<RecordPair, uint32_t, RecordPairHash> refcount_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_BLOCKING_INCREMENTAL_INDEX_H_
