// Schedule-equivalence differential suite for full CRUD streaming: after ANY
// interleaved add/update/delete schedule, at any thread count,
// IncrementalPipeline::Snapshot() must be identical — predicted pairs,
// pre-cleanup components, groups, and all cleanup counters — to a
// from-scratch EntityGroupPipeline::Run on the FINAL SURVIVING record set
// (survivors keep their original sparse ids; the reference's compacted ids
// are remapped through the monotone survivor list). Schedules cover:
// targeted removals, updates that change blocking keys, delete-then-readd
// identity, delete-everything-then-rebuild, and seeded fuzz schedules
// (>= 200 across both fixtures x 1/2/8 threads), each ending in a
// checkpoint round trip. A counting matcher proves deletion never rescores
// unaffected pairs (every matcher call across a whole CRUD schedule is a
// distinct pair), and checkpoint round-trips carry tombstones exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "matching/baselines.h"
#include "serve/checkpoint.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace {

// ---------------------------------------------------------------------------
// Matchers (same idiom as stream_test.cc)
// ---------------------------------------------------------------------------

/// Deterministic text matcher (token Jaccard of AllText, scaled): avoids
/// transcendental math so scores are bit-identical everywhere.
class JaccardMatcher : public PairwiseMatcher {
 public:
  explicit JaccardMatcher(double scale = 1.0) : scale_(scale) {}

  std::string name() const override { return "jaccard"; }
  std::string Fingerprint() const override {
    return "jaccard#" + std::to_string(scale_);
  }
  double MatchProbability(const Record& a, const Record& b) const override {
    auto ta = Tokens(a);
    auto tb = Tokens(b);
    if (ta.empty() && tb.empty()) return 0.0;
    size_t common = 0;
    size_t ia = 0, ib = 0;
    while (ia < ta.size() && ib < tb.size()) {
      if (ta[ia] < tb[ib]) {
        ++ia;
      } else if (tb[ib] < ta[ia]) {
        ++ib;
      } else {
        ++common;
        ++ia;
        ++ib;
      }
    }
    const size_t total = ta.size() + tb.size() - common;
    double score = scale_ * static_cast<double>(common) /
                   static_cast<double>(total == 0 ? 1 : total);
    return score > 1.0 ? 1.0 : score;
  }

 private:
  static std::vector<std::string> Tokens(const Record& rec) {
    auto toks = TokenizeContentWords(rec.AllText());
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }

  double scale_;
};

/// Counts calls and the distinct pairs seen (via the "_uid" metadata the
/// fixtures stamp on every record). Thread-safe, as the pipeline requires.
class CountingMatcher : public PairwiseMatcher {
 public:
  explicit CountingMatcher(const PairwiseMatcher* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_;
      int ua = std::stoi(std::string(a.Get("_uid")));
      int ub = std::stoi(std::string(b.Get("_uid")));
      seen_.insert({std::min(ua, ub), std::max(ua, ub)});
    }
    return inner_->MatchProbability(a, b);
  }

  size_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  size_t distinct_pairs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.size();
  }

 private:
  const PairwiseMatcher* inner_;
  mutable std::mutex mu_;
  mutable size_t calls_ = 0;
  mutable std::set<std::pair<int, int>> seen_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Records of `table` as a vector, each stamped with a unique "_uid"
/// metadata attribute (excluded from matching inputs by convention).
std::vector<Record> WithUids(const RecordTable& table) {
  std::vector<Record> out;
  out.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    Record rec = table.at(static_cast<RecordId>(i));
    rec.Set("_uid", std::to_string(i));
    out.push_back(std::move(rec));
  }
  return out;
}

/// From-scratch reference: the same blockers and pipeline configuration the
/// incremental pipeline maintains, run on the full record set.
PipelineResult RunBatchReference(const RecordTable& records,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher) {
  Dataset ds;
  ds.records = records;
  CandidateSet candidates;
  if (config.use_id_blocker) {
    IdOverlapBlocker::Options opts;
    opts.num_threads = config.pipeline.num_threads;
    IdOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  if (config.use_token_blocker) {
    TokenOverlapBlocker::Options opts = config.token;
    opts.num_threads = config.pipeline.num_threads;
    TokenOverlapBlocker(opts).AddCandidates(ds, &candidates);
  }
  return EntityGroupPipeline(config.pipeline)
      .Run(ds, candidates.ToVector(), matcher);
}

/// From-scratch reference on the SURVIVORS of a CRUD history: rebuilds a
/// compacted table of the live records, runs the batch pipeline on it, and
/// remaps the result back to the original sparse ids. The compact->original
/// map is monotone (survivors keep their relative order), so every ordering
/// the batch pipeline guarantees survives the remap unchanged.
PipelineResult SurvivorReference(const RecordTable& records,
                                 const std::vector<char>& alive,
                                 const IncrementalPipelineConfig& config,
                                 const PairwiseMatcher& matcher) {
  RecordTable survivors;
  std::vector<NodeId> original;  // compact id -> original id
  original.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    if (!alive[i]) continue;
    survivors.Add(records.at(static_cast<RecordId>(i)));
    original.push_back(static_cast<NodeId>(i));
  }
  PipelineResult ref = RunBatchReference(survivors, config, matcher);
  for (RecordPair& pair : ref.predicted_pairs) {
    pair.a = static_cast<RecordId>(original[static_cast<size_t>(pair.a)]);
    pair.b = static_cast<RecordId>(original[static_cast<size_t>(pair.b)]);
  }
  for (auto* sets : {&ref.pre_cleanup_components, &ref.groups}) {
    for (std::vector<NodeId>& nodes : *sets) {
      for (NodeId& u : nodes) u = original[static_cast<size_t>(u)];
    }
  }
  return ref;
}

void ExpectEquivalent(const PipelineResult& actual,
                      const PipelineResult& reference,
                      const std::string& context) {
  EXPECT_EQ(actual.predicted_pairs, reference.predicted_pairs) << context;
  EXPECT_EQ(actual.pre_cleanup_components, reference.pre_cleanup_components)
      << context;
  EXPECT_EQ(actual.groups, reference.groups) << context;
  EXPECT_EQ(actual.cleanup_stats.pre_cleanup_edges_removed,
            reference.cleanup_stats.pre_cleanup_edges_removed)
      << context;
  EXPECT_EQ(actual.cleanup_stats.min_cut_calls,
            reference.cleanup_stats.min_cut_calls)
      << context;
  EXPECT_EQ(actual.cleanup_stats.min_cut_edges_removed,
            reference.cleanup_stats.min_cut_edges_removed)
      << context;
  EXPECT_EQ(actual.cleanup_stats.betweenness_calls,
            reference.cleanup_stats.betweenness_calls)
      << context;
  EXPECT_EQ(actual.cleanup_stats.betweenness_edges_removed,
            reference.cleanup_stats.betweenness_edges_removed)
      << context;
}

IncrementalPipelineConfig CrudConfig(size_t num_threads,
                                     double match_threshold) {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 6;
  config.pipeline.cleanup.mu = 3;
  config.pipeline.pre_cleanup_threshold = 9;
  config.pipeline.match_threshold = match_threshold;
  config.pipeline.num_threads = num_threads;
  config.token.top_n = 5;
  return config;
}

// ---------------------------------------------------------------------------
// CRUD schedules
// ---------------------------------------------------------------------------

/// One mutation round. Ids are concrete: the schedule generator simulates
/// id assignment (contiguous, never recycled), so one schedule replays
/// identically at any thread count.
struct CrudOp {
  std::vector<Record> adds;
  std::vector<RecordId> removals;
  std::vector<RecordUpdate> updates;
};

struct CrudSchedule {
  std::vector<Record> initial;
  std::vector<CrudOp> ops;
  /// Liveness after the whole schedule (parallel to the final id space);
  /// the executor asserts the pipeline agrees.
  std::vector<char> final_alive;
};

/// Draw a random schedule over `pool`: an initial ingest of roughly 60% of
/// the pool, then `num_ops` rounds mixing adds (from the pool's reserve),
/// removals of random live ids, and updates of random live ids — half the
/// update payloads come from the reserve (completely different blocking
/// keys), half append a token to the current payload's name.
CrudSchedule MakeSchedule(const std::vector<Record>& pool, uint64_t seed,
                          size_t num_ops) {
  Rng rng(seed);
  CrudSchedule schedule;
  const size_t n0 = (pool.size() * 3) / 5;
  schedule.initial.assign(pool.begin(), pool.begin() + static_cast<long>(n0));
  size_t reserve_next = n0;

  // Mirror of the pipeline's state: payload per id, live id list.
  std::vector<Record> payload(schedule.initial);
  std::vector<RecordId> live;
  for (size_t i = 0; i < n0; ++i) live.push_back(static_cast<RecordId>(i));
  std::vector<char> alive(n0, 1);

  auto add_record = [&](Record rec, CrudOp* op) {
    const RecordId id = static_cast<RecordId>(payload.size());
    op->adds.push_back(rec);
    payload.push_back(std::move(rec));
    alive.push_back(1);
    live.push_back(id);
  };
  auto kill = [&](size_t live_index) {
    const RecordId id = live[live_index];
    alive[static_cast<size_t>(id)] = 0;
    live[live_index] = live.back();
    live.pop_back();
    return id;
  };

  for (size_t k = 0; k < num_ops; ++k) {
    CrudOp op;
    const size_t count = 1 + rng.Uniform(4);
    size_t kind = rng.Uniform(3);
    if (live.empty()) kind = 0;                        // nothing to mutate
    if (kind != 1 && reserve_next >= pool.size()) kind = 1;  // reserve dry
    if (kind == 0) {
      for (size_t i = 0; i < count && reserve_next < pool.size(); ++i) {
        add_record(pool[reserve_next++], &op);
      }
    } else if (kind == 1) {
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        op.removals.push_back(kill(rng.Uniform(live.size())));
      }
    } else {
      // One Update batch operates on the pre-batch state: the replacement
      // records only become targetable AFTER the round, so their ids are
      // published to `live` once the whole batch is drawn.
      std::vector<RecordId> born;
      for (size_t i = 0; i < count && !live.empty(); ++i) {
        RecordUpdate update;
        update.id = kill(rng.Uniform(live.size()));
        if (rng.Uniform(2) == 0 && reserve_next < pool.size()) {
          update.record = pool[reserve_next++];
        } else {
          update.record = payload[static_cast<size_t>(update.id)];
          update.record.Set(
              "name", std::string(update.record.Get("name")) + " revised");
        }
        Record replacement = update.record;
        op.updates.push_back(std::move(update));
        born.push_back(static_cast<RecordId>(payload.size()));
        payload.push_back(std::move(replacement));
        alive.push_back(1);
      }
      live.insert(live.end(), born.begin(), born.end());
    }
    schedule.ops.push_back(std::move(op));
  }
  schedule.final_alive = std::move(alive);
  return schedule;
}

/// Checkpoint `pipeline` through the single-file format and check the
/// restored pipeline: same liveness, same snapshot, bitwise re-serialization.
void ExpectCheckpointRoundTrip(const IncrementalPipeline& pipeline,
                               const PairwiseMatcher& matcher,
                               const std::string& context) {
  const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
  Result<std::unique_ptr<IncrementalPipeline>> restored =
      ParseCheckpoint(image, matcher);
  ASSERT_TRUE(restored.ok()) << context << ": "
                             << restored.status().message();
  EXPECT_EQ((*restored)->alive(), pipeline.alive()) << context;
  ExpectEquivalent((*restored)->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), context + " (restored)");
  EXPECT_EQ(SerializeCheckpoint(**restored).ValueOrDie(), image) << context;
}

/// Replay `schedule` (its rounds may mix adds, removals and updates; a
/// round runs removals+adds first, then updates), differential-check the
/// final snapshot against the survivor reference, and round-trip the final
/// state through a checkpoint.
void RunCrudSchedule(IncrementalPipeline* pipeline,
                     const CrudSchedule& schedule,
                     const IncrementalPipelineConfig& config,
                     const PairwiseMatcher& matcher, const std::string& context,
                     size_t check_every = 0) {
  {
    Result<IngestReport> r = pipeline->Ingest(schedule.initial, matcher);
    ASSERT_TRUE(r.ok()) << context << ": " << r.status().message();
  }
  for (size_t k = 0; k < schedule.ops.size(); ++k) {
    const CrudOp& op = schedule.ops[k];
    if (!op.removals.empty()) {
      Result<IngestReport> r = pipeline->Remove(op.removals, matcher);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().message();
    }
    if (!op.adds.empty()) {
      Result<IngestReport> r = pipeline->Ingest(op.adds, matcher);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().message();
    }
    if (!op.updates.empty()) {
      Result<IngestReport> r = pipeline->Update(op.updates, matcher);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().message()
                          << " [op " << k << ", table size "
                          << pipeline->records().size() << "]";
    }
    if (check_every != 0 && (k + 1) % check_every == 0) {
      ExpectEquivalent(
          pipeline->Snapshot().ValueOrDie(),
          SurvivorReference(pipeline->records(), pipeline->alive(), config,
                            matcher),
          context + " after op " + std::to_string(k + 1));
    }
  }
  ASSERT_EQ(pipeline->alive(), schedule.final_alive) << context;
  ExpectEquivalent(pipeline->Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline->records(), pipeline->alive(),
                                     config, matcher),
                   context + " (final)");
  ExpectCheckpointRoundTrip(*pipeline, matcher, context);
}

std::vector<Record> FinancialPool(uint64_t seed, size_t num_groups) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_groups = num_groups;
  FinancialBenchmark bench = FinancialGenerator(config).Generate();
  return WithUids(bench.securities.records);
}

std::vector<Record> WdcPool(uint64_t seed, size_t num_entities) {
  WdcConfig config;
  config.num_entities = num_entities;
  config.seed = seed;
  Dataset products = WdcProductsGenerator(config).Generate();
  return WithUids(products.records);
}

// ---------------------------------------------------------------------------
// Financial fixture
// ---------------------------------------------------------------------------

class FinancialCrud : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<Record>(FinancialPool(505, 40));
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<Record>* records_;
};

std::vector<Record>* FinancialCrud::records_ = nullptr;

TEST_F(FinancialCrud, RemoveSubsetEquivalentAtEveryThreadCount) {
  JaccardMatcher matcher;
  for (size_t threads : {1u, 2u, 8u}) {
    IncrementalPipelineConfig config = CrudConfig(threads, 0.25);
    IncrementalPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
    // Every 4th record dies, in three waves.
    std::vector<RecordId> doomed;
    for (size_t i = 0; i < records_->size(); i += 4) {
      doomed.push_back(static_cast<RecordId>(i));
    }
    const size_t third = doomed.size() / 3;
    for (size_t wave = 0; wave < 3; ++wave) {
      const size_t begin = wave * third;
      const size_t end = wave == 2 ? doomed.size() : begin + third;
      std::vector<RecordId> ids(doomed.begin() + static_cast<long>(begin),
                                doomed.begin() + static_cast<long>(end));
      IngestReport report = pipeline.Remove(ids, matcher).ValueOrDie();
      EXPECT_EQ(report.records_removed, ids.size());
      EXPECT_EQ(report.records_added, 0u);
      ExpectEquivalent(
          pipeline.Snapshot().ValueOrDie(),
          SurvivorReference(pipeline.records(), pipeline.alive(), config,
                            matcher),
          "threads=" + std::to_string(threads) + " wave=" +
              std::to_string(wave));
    }
    EXPECT_EQ(pipeline.num_dead(), doomed.size());
    EXPECT_EQ(pipeline.num_live() + pipeline.num_dead(),
              pipeline.records().size());
  }
}

TEST_F(FinancialCrud, UpdateChangingBlockingKeysEquivalent) {
  // Updates whose new payload belongs to a *different* entity group: the
  // old blocking keys (identifiers, tokens) must retract and the new ones
  // must admit, moving the record across groups exactly as a from-scratch
  // run would place it.
  JaccardMatcher matcher;
  std::vector<Record> other = FinancialPool(909, 12);
  for (size_t threads : {1u, 8u}) {
    IncrementalPipelineConfig config = CrudConfig(threads, 0.25);
    IncrementalPipeline pipeline(config);
    ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
    std::vector<RecordUpdate> batch;
    for (size_t k = 0; k < 12 && k < other.size(); ++k) {
      RecordUpdate update;
      update.id = static_cast<RecordId>(k * 7 % records_->size());
      update.record = other[k];
      // Ids inside one Update must be unique.
      bool duplicate = false;
      for (const RecordUpdate& prev : batch) {
        duplicate = duplicate || prev.id == update.id;
      }
      if (!duplicate) batch.push_back(std::move(update));
    }
    IngestReport report = pipeline.Update(batch, matcher).ValueOrDie();
    EXPECT_EQ(report.records_removed, batch.size());
    EXPECT_EQ(report.records_added, batch.size());
    ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                     SurvivorReference(pipeline.records(), pipeline.alive(),
                                       config, matcher),
                     "threads=" + std::to_string(threads));
  }
}

TEST_F(FinancialCrud, DeleteThenReaddRestoresTheSameGroups) {
  // Deleting the TAIL of the table and re-adding the exact payloads in the
  // same order must restore the same entity groups (under new ids — ids are
  // never recycled, so identity is checked through the stable "_uid"
  // payload attribute). The suffix restriction matters: the re-add then
  // reproduces the original record ORDER, and the pipeline's contract is
  // equivalence to a from-scratch run on the surviving sequence — blocking
  // (top-n token lists, df caps) is a function of the sequence, not the
  // set, so scattered deletions re-added at the end are a *different*
  // sequence and legitimately may group differently (covered below by the
  // schedule-equivalence check, which is order-aware).
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());

  auto uid_groups = [&](const PipelineResult& result) {
    std::set<std::vector<std::string>> groups;
    for (const std::vector<NodeId>& group : result.groups) {
      std::vector<std::string> uids;
      for (NodeId u : group) {
        uids.push_back(std::string(
            pipeline.records().at(static_cast<RecordId>(u)).Get("_uid")));
      }
      std::sort(uids.begin(), uids.end());
      groups.insert(std::move(uids));
    }
    return groups;
  };
  const auto before = uid_groups(pipeline.Snapshot().ValueOrDie());

  // Tail fifth: delete, then re-add the identical payload sequence.
  const size_t cut = (records_->size() * 4) / 5;
  std::vector<RecordId> doomed;
  std::vector<Record> payloads;
  for (size_t i = cut; i < records_->size(); ++i) {
    doomed.push_back(static_cast<RecordId>(i));
    payloads.push_back((*records_)[i]);
  }
  ASSERT_TRUE(pipeline.Remove(doomed, matcher).ok());
  ASSERT_TRUE(pipeline.Ingest(payloads, matcher).ok());
  EXPECT_EQ(uid_groups(pipeline.Snapshot().ValueOrDie()), before);

  // Scattered deletions re-added at the end: groups may differ from
  // `before`, but the snapshot must still equal the from-scratch run on
  // the new surviving sequence.
  std::vector<RecordId> scattered;
  std::vector<Record> scattered_payloads;
  for (size_t i = 3; i < cut; i += 5) {
    scattered.push_back(static_cast<RecordId>(i));
    scattered_payloads.push_back((*records_)[i]);
  }
  ASSERT_TRUE(pipeline.Remove(scattered, matcher).ok());
  ASSERT_TRUE(pipeline.Ingest(scattered_payloads, matcher).ok());
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline.records(), pipeline.alive(),
                                     config, matcher),
                   "delete-then-readd");
}

TEST_F(FinancialCrud, DeleteEverythingThenRebuild) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());

  // Delete every record in two waves: the snapshot must become completely
  // empty (no pairs, no components, no groups, zeroed cleanup counters).
  std::vector<RecordId> first_half, second_half;
  for (size_t i = 0; i < records_->size(); ++i) {
    (i < records_->size() / 2 ? first_half : second_half)
        .push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(first_half, matcher).ok());
  ASSERT_TRUE(pipeline.Remove(second_half, matcher).ok());
  PipelineResult empty = pipeline.Snapshot().ValueOrDie();
  EXPECT_TRUE(empty.predicted_pairs.empty());
  EXPECT_TRUE(empty.pre_cleanup_components.empty());
  EXPECT_TRUE(empty.groups.empty());
  EXPECT_EQ(pipeline.num_live(), 0u);

  // Rebuild from the same payloads: full equivalence again.
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  ExpectEquivalent(pipeline.Snapshot().ValueOrDie(),
                   SurvivorReference(pipeline.records(), pipeline.alive(),
                                     config, matcher),
                   "rebuild after delete-everything");
}

TEST_F(FinancialCrud, DeletionNeverRescoresUnaffectedPairs) {
  // Every matcher call across a whole CRUD schedule must be a DISTINCT pair
  // of record instances: the cache is keyed by record id, ids are never
  // recycled, and eviction only drops entries whose endpoint died and can
  // never become a candidate again — so under one fingerprint no id pair is
  // ever scored twice, no matter how records are removed and re-added. The
  // "_uid" stamps below are unique per record INSTANCE (re-adds get fresh
  // uids), making distinct_pairs() exactly the id-pair count.
  JaccardMatcher inner;
  CountingMatcher counting(&inner);
  IncrementalPipelineConfig config = CrudConfig(4, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, counting).ok());
  const size_t calls_after_ingest = counting.calls();
  ASSERT_GT(calls_after_ingest, 0u);

  // A pure removal wave spends matcher calls ONLY on pairs retraction newly
  // admits (a bucket dropping back under its cap exposes never-scored
  // survivor pairs); dirty-component re-cleaning itself reuses cached
  // scores, so the call delta is exactly the report's pairs_scored and
  // every one of them is a first-time pair.
  std::vector<RecordId> doomed;
  for (size_t i = 0; i < records_->size(); i += 6) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  IngestReport report = pipeline.Remove(doomed, counting).ValueOrDie();
  EXPECT_EQ(counting.calls() - calls_after_ingest, report.pairs_scored);
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
  EXPECT_GT(report.cache_evictions, 0u);

  // Mixed follow-up (re-add the dead payloads under fresh uids + more
  // removals): still never a repeated record-instance pair.
  std::vector<Record> readd;
  for (size_t i = 0; i < records_->size(); i += 6) {
    Record rec = (*records_)[i];
    rec.Set("_uid", std::to_string(10000 + i));
    readd.push_back(std::move(rec));
  }
  ASSERT_TRUE(pipeline.Ingest(readd, counting).ok());
  std::vector<RecordId> more;
  for (size_t i = 1; i < records_->size(); i += 9) {
    more.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(more, counting).ok());
  EXPECT_EQ(counting.calls(), counting.distinct_pairs());
}

TEST_F(FinancialCrud, InvalidRemovalsAreCleanErrorsWithoutPoisoning) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(1, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  const PipelineResult before = pipeline.Snapshot().ValueOrDie();

  // Out of range, negative, duplicate, and double-delete: each is an
  // InvalidArgument that mutates NOTHING (not even partially).
  const RecordId n = static_cast<RecordId>(records_->size());
  for (const std::vector<RecordId>& bad :
       {std::vector<RecordId>{n}, std::vector<RecordId>{-1},
        std::vector<RecordId>{0, 1, 0}}) {
    Result<IngestReport> result = pipeline.Remove(bad, matcher);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(pipeline.status().ok());
  }
  ASSERT_TRUE(pipeline.Remove({2}, matcher).ok());
  Result<IngestReport> twice = pipeline.Remove({2}, matcher);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(twice.status().message().find("tombstoned"), std::string::npos);

  // Updates validate the same way, and a failed batch changes nothing —
  // including a batch whose FIRST id is fine but whose second is dead.
  RecordUpdate ok_update;
  ok_update.id = 4;
  ok_update.record = (*records_)[5];
  RecordUpdate dead_update;
  dead_update.id = 2;
  dead_update.record = (*records_)[6];
  Result<IngestReport> mixed = pipeline.Update({ok_update, dead_update}, matcher);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(pipeline.status().ok());
  EXPECT_TRUE(pipeline.is_alive(4));
}

TEST_F(FinancialCrud, CheckpointRoundTripCarriesTombstones) {
  JaccardMatcher matcher;
  IncrementalPipelineConfig config = CrudConfig(2, 0.25);
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());

  // Without tombstones, the image stamps format version 1 (byte offset 8):
  // pre-tombstone readers keep loading tombstone-free checkpoints.
  std::string clean = SerializeCheckpoint(pipeline).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(clean[8])), 1u);

  std::vector<RecordId> doomed;
  for (size_t i = 0; i < records_->size(); i += 3) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(doomed, matcher).ok());
  std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(image[8])), 2u);

  auto restored = ParseCheckpoint(image, matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), doomed.size());
  EXPECT_EQ(restored->alive(), pipeline.alive());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "restored snapshot");
  // Re-serializing the restored pipeline reproduces the image bitwise.
  EXPECT_EQ(SerializeCheckpoint(*restored).ValueOrDie(), image);

  // The restored pipeline keeps mutating exactly like the original.
  std::vector<RecordId> more = {1, 4};
  ASSERT_TRUE(pipeline.Remove(more, matcher).ok());
  ASSERT_TRUE(restored->Remove(more, matcher).ok());
  ASSERT_TRUE(pipeline.Ingest({(*records_)[0]}, matcher).ok());
  ASSERT_TRUE(restored->Ingest({(*records_)[0]}, matcher).ok());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "after restored mutations");
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   SurvivorReference(restored->records(), restored->alive(),
                                     config, matcher),
                   "restored vs survivors");
}

TEST_F(FinancialCrud, MatchServiceExcludesTombstonedRecords) {
  // The serving layer needs no tombstone plumbing: dead records are absent
  // from the snapshot's groups, so GroupOf reports kNoGroup for them and
  // group membership lists never contain them.
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(CrudConfig(1, 0.25));
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  MatchService service;
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  const RecordId victim = 0;
  ASSERT_NE(service.GroupOf(victim), kNoGroup);

  ASSERT_TRUE(pipeline.Remove({victim}, matcher).ok());
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  EXPECT_EQ(service.GroupOf(victim), kNoGroup);
  MatchSnapshotPtr view = service.View();
  size_t total_members = 0;
  for (size_t g = 0; g < view->num_groups(); ++g) {
    for (RecordId member : view->Members(static_cast<GroupId>(g))) {
      EXPECT_NE(member, victim);
      ++total_members;
    }
  }
  // Every live record sits in exactly one group (singletons included); the
  // dead one sits in none.
  EXPECT_EQ(total_members, pipeline.num_live());
}

// ---------------------------------------------------------------------------
// Seeded fuzz schedules: >= 200 across fixtures x threads
// ---------------------------------------------------------------------------

void FuzzIncremental(const std::vector<Record>& pool, double threshold,
                     size_t threads, uint64_t seed_base, size_t num_seeds) {
  JaccardMatcher matcher;
  for (uint64_t seed = 0; seed < num_seeds; ++seed) {
    IncrementalPipelineConfig config = CrudConfig(threads, threshold);
    IncrementalPipeline pipeline(config);
    RunCrudSchedule(&pipeline, MakeSchedule(pool, seed_base + seed, 8), config,
                    matcher,
                    "incremental threads=" + std::to_string(threads) +
                        " seed=" + std::to_string(seed_base + seed));
  }
}

TEST_F(FinancialCrud, FuzzIncrementalSchedules) {
  // 3 thread counts x 20 seeds = 60 schedules.
  for (size_t threads : {1u, 2u, 8u}) {
    FuzzIncremental(*records_, 0.25, threads, 1000, 20);
  }
}

TEST_F(FinancialCrud, FuzzIncrementalSchedulesFromSeed2000) {
  // 3 thread counts x 21 seeds = 63 schedules.
  for (size_t threads : {1u, 2u, 8u}) {
    FuzzIncremental(*records_, 0.25, threads, 2000, 21);
  }
}

// ---------------------------------------------------------------------------
// WDC products fixture
// ---------------------------------------------------------------------------

class WdcCrud : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<Record>(WdcPool(77, 80));
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<Record>* records_;
};

std::vector<Record>* WdcCrud::records_ = nullptr;

TEST_F(WdcCrud, FuzzIncrementalSchedules) {
  // 3 thread counts x 14 seeds = 42 schedules.
  for (size_t threads : {1u, 2u, 8u}) {
    FuzzIncremental(*records_, 0.35, threads, 3000, 14);
  }
}

TEST_F(WdcCrud, FuzzIncrementalSchedulesFromSeed4000) {
  // 3 thread counts x 14 seeds = 42 schedules.
  for (size_t threads : {1u, 2u, 8u}) {
    FuzzIncremental(*records_, 0.35, threads, 4000, 14);
  }
}

TEST_F(WdcCrud, MidScheduleChecksStayEquivalent) {
  // A handful of schedules checked after EVERY op, not just at the end.
  JaccardMatcher matcher;
  for (uint64_t seed : {1u, 2u, 3u}) {
    IncrementalPipelineConfig config = CrudConfig(2, 0.35);
    IncrementalPipeline pipeline(config);
    RunCrudSchedule(&pipeline, MakeSchedule(*records_, seed, 6), config,
                    matcher, "wdc mid-schedule seed=" + std::to_string(seed),
                    /*check_every=*/1);
  }
}

TEST_F(WdcCrud, CheckpointRoundTripCarriesTombstones) {
  JaccardMatcher matcher;
  IncrementalPipeline pipeline(CrudConfig(2, 0.35));
  ASSERT_TRUE(pipeline.Ingest(*records_, matcher).ok());
  std::vector<RecordId> doomed;
  for (size_t i = 1; i < records_->size(); i += 4) {
    doomed.push_back(static_cast<RecordId>(i));
  }
  ASSERT_TRUE(pipeline.Remove(doomed, matcher).ok());

  // The image stamps version 2 once tombstones exist (byte offset 8).
  const std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
  EXPECT_EQ(static_cast<uint32_t>(static_cast<uint8_t>(image[8])), 2u);

  auto restored = ParseCheckpoint(image, matcher).ValueOrDie();
  EXPECT_EQ(restored->num_dead(), doomed.size());
  EXPECT_EQ(restored->alive(), pipeline.alive());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "restored");
  // Re-serializing the restored pipeline reproduces the image bitwise.
  EXPECT_EQ(SerializeCheckpoint(*restored).ValueOrDie(), image);

  // And keeps mutating identically.
  std::vector<RecordUpdate> update(1);
  update[0].id = 0;
  update[0].record = (*records_)[2];
  ASSERT_TRUE(pipeline.Update(update, matcher).ok());
  ASSERT_TRUE(restored->Update(update, matcher).ok());
  ExpectEquivalent(restored->Snapshot().ValueOrDie(),
                   pipeline.Snapshot().ValueOrDie(), "restored after update");
}

// ---------------------------------------------------------------------------
// Regression: one mutation that both admits and retracts a candidate pair
// ---------------------------------------------------------------------------

TEST(CrudCheckpointRegression, ChurnedSecuritiesCheckpointLoads) {
  // One Update can add a candidate pair through one blocker's delta and
  // retract it through another's, leaving it with provenance 0. Such a
  // pair is no candidate: it must leave the candidate set, or the saved
  // image fails ParseCheckpoint's provenance check. A 5% Update step on
  // the 1 000-group, seed-7 securities fixture produces such pairs.
  SyntheticConfig fixture;
  fixture.seed = 7;
  fixture.num_groups = 1000;
  const RecordTable table =
      FinancialGenerator(fixture).Generate().securities.records;
  std::vector<Record> records;
  records.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    records.push_back(table.at(static_cast<RecordId>(i)));
  }

  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 25;
  config.pipeline.cleanup.mu = 5;
  config.pipeline.pre_cleanup_threshold = 50;
  config.token.top_n = 5;
  HeuristicIdMatcher matcher;
  IncrementalPipeline pipeline(config);
  ASSERT_TRUE(pipeline.Ingest(records, matcher).ok());

  // Draw 2 x 5% of the live ids; the second half is replaced by seeded
  // fixture records.
  Rng rng(7);
  std::vector<RecordId> live;
  for (size_t i = 0; i < records.size(); ++i) {
    live.push_back(static_cast<RecordId>(i));
  }
  const size_t churn = live.size() / 20 + 1;
  for (size_t k = 0; k < 2 * churn; ++k) {
    const size_t j = k + static_cast<size_t>(rng.Uniform(live.size() - k));
    std::swap(live[k], live[j]);
  }
  std::vector<RecordUpdate> updates;
  for (size_t k = churn; k < 2 * churn; ++k) {
    RecordUpdate update;
    update.id = live[k];
    update.record = records[static_cast<size_t>(rng.Uniform(records.size()))];
    updates.push_back(std::move(update));
  }
  ASSERT_TRUE(pipeline.Update(updates, matcher).ok());
  ExpectCheckpointRoundTrip(pipeline, matcher, "churned securities");
}

}  // namespace
}  // namespace gralmatch
