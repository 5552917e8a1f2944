// companies_transformer: the companies fixture matched by the paper's
// fine-tuned transformer and ingested in a few batches, each followed by
// Snapshot + Publish.

#include <memory>

#include "checks.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "datagen/financial_gen.h"
#include "harness.h"
#include "matching/pair_sampling.h"
#include "matching/transformer_matcher.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using gralmatch::PipelineResult;
using gralmatch::Record;
using gralmatch::RecordId;

/// ~4.3 records per group: ~4.3 k company records.
constexpr size_t kCompanyGroups = 1000;
constexpr size_t kBatches = 4;
constexpr size_t kScoreSamples = 200;
/// The matcher is fine-tuned on a fixture of its own, the same on every
/// run: a model trained once matches fresh records generated from --seed.
/// (Trained on the seeded fixture itself, the transformer's quality swings
/// from run to run far more than the data does.)
constexpr uint64_t kTrainSeed = 1;

/// Records to ingest, in arrival order, with their true entities.
struct Fixture {
  std::vector<Record> records;
  std::vector<gralmatch::EntityId> entity_of;
};

struct Trained {
  std::vector<Fixture> fixtures;
  std::unique_ptr<gralmatch::TransformerMatcher> matcher;
};

/// Generate the fixtures to ingest from the seed, and fine-tune the matcher
/// on a group split of the fixed training fixture.
Trained SetUp(const Context& ctx) {
  Trained out;
  gralmatch::SyntheticConfig config;
  config.seed = kTrainSeed;
  config.num_groups = kCompanyGroups;
  gralmatch::Dataset training;
  {
    Span span(ctx.tracer, "datagen.generate");
    training = gralmatch::FinancialGenerator(config).Generate().companies;
    for (size_t k = 0; k < kFixturesPerRun; ++k) {
      config.seed = FixtureSeed(ctx.seed, k);
      const gralmatch::Dataset ingest =
          gralmatch::FinancialGenerator(config).Generate().companies;
      Fixture fixture;
      for (size_t i = 0; i < ingest.records.size(); ++i) {
        fixture.records.push_back(ingest.records.at(static_cast<RecordId>(i)));
        fixture.entity_of.push_back(
            ingest.truth.entity_of(static_cast<RecordId>(i)));
      }
      out.fixtures.push_back(std::move(fixture));
    }
  }
  gralmatch::Rng split_rng(kTrainSeed ^ 0x5B11);
  const gralmatch::GroupSplit split =
      gralmatch::SplitByGroups(training.truth, &split_rng);
  gralmatch::PairSamplingOptions sampling;
  sampling.seed = kTrainSeed ^ 0x9A1B5;
  // A capped sample keeps set-up short.
  sampling.max_positives = 600;
  const auto train = gralmatch::SamplePairs(training, split,
                                            gralmatch::SplitPart::kTrain,
                                            sampling);
  sampling.max_positives = 200;
  const auto val = gralmatch::SamplePairs(training, split,
                                          gralmatch::SplitPart::kValidation,
                                          sampling);
  Span span(ctx.tracer, "matching.train");
  gralmatch::TransformerMatcherConfig mconfig;
  mconfig.display_name = "DistilBERT-e2e";
  mconfig.max_seq_len = 32;
  mconfig.trainer.lr = 1.5e-3f;
  mconfig.seed = kTrainSeed ^ 0x7777;
  mconfig.trainer.epochs = 2;
  mconfig.trainer.shuffle_seed = kTrainSeed ^ 0xD00D;
  out.matcher = std::make_unique<gralmatch::TransformerMatcher>(mconfig);
  gralmatch::RecordTable train_records;
  for (size_t i = 0; i < training.records.size(); ++i) {
    if (split.part(static_cast<RecordId>(i)) == gralmatch::SplitPart::kTrain) {
      train_records.Add(training.records.at(static_cast<RecordId>(i)));
    }
  }
  out.matcher->BuildVocab(train_records);
  out.matcher->FineTune(training.records, train, val);
  return out;
}

gralmatch::IncrementalPipelineConfig CompaniesConfig(const Context& ctx) {
  gralmatch::IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 25;
  config.pipeline.cleanup.mu = 5;
  config.pipeline.pre_cleanup_threshold = 50;
  config.pipeline.num_threads = 2;
  config.pipeline.metrics = ctx.metrics;
  config.token.top_n = 5;
  return config;
}

}  // namespace

void RunCompaniesTransformer(const Context& ctx, RunResult* out) {
  const std::string what = "companies_transformer";
  Trained trained;
  std::vector<double> setups;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    const auto start = Clock::now();
    Span span(ctx.tracer, "workload.setup");
    trained = SetUp(ctx);
    setups.push_back(SecondsSince(start));
  }
  out->setup_s = Median(setups);

  const gralmatch::IncrementalPipelineConfig config = CompaniesConfig(ctx);

  std::vector<double> batch_ms;
  double ingest_s = 0.0;
  double ingest_records = 0.0;
  double f1_sum = 0.0;
  double pre_f1_sum = 0.0;
  std::vector<std::vector<std::vector<gralmatch::NodeId>>> first_groups(
      kFixturesPerRun);
  // Round k ingests fixture k mod kFixturesPerRun; the first pass over the
  // fixtures runs the checks, and the run ends after whole passes.
  const auto start = Clock::now();
  size_t rounds = 0;
  do {
    Span round_span(ctx.tracer, "workload.round");
    const size_t k = rounds % kFixturesPerRun;
    const std::vector<Record>& records = trained.fixtures[k].records;
    const size_t n = records.size();
    const size_t batch_size = (n + kBatches - 1) / kBatches;
    gralmatch::IncrementalPipeline pipeline(config);
    gralmatch::MatchService service(ctx.metrics);
    bool ok = true;
    for (size_t begin = 0; begin < n && ok; begin += batch_size) {
      const size_t end = std::min(begin + batch_size, n);
      std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                                records.begin() + static_cast<long>(end));
      const auto batch_start = Clock::now();
      ok = IngestSnapshotPublish(ctx, &pipeline, &service, batch,
                                 *trained.matcher, out);
      const double seconds = SecondsSince(batch_start);
      batch_ms.push_back(seconds * 1e3);
      ingest_s += seconds;
      ingest_records += static_cast<double>(end - begin);
    }
    if (!ok) break;
    const PipelineResult result = pipeline.Snapshot().ValueOrDie();
    out->layers.SetCleanup(result);
    if (rounds < kFixturesPerRun) {
      CheckGroupStructure(result, pipeline.alive(), config.pipeline.cleanup.mu,
                          what, out);
      CheckSampledScores(result, pipeline.records(), *trained.matcher,
                         config.pipeline.match_threshold, ctx.seed ^ 0x5A ^ k,
                         kScoreSamples, what, out);
      const std::vector<gralmatch::EntityId>& entity_of =
          trained.fixtures[k].entity_of;
      const double f1 = GroupF1(result.groups, entity_of);
      const double pre_f1 = GroupF1(result.pre_cleanup_components, entity_of);
      if (!(f1 > pre_f1)) {
        out->Fail(what + ": post-cleanup group F1 does not beat pre-cleanup");
      }
      f1_sum += f1;
      pre_f1_sum += pre_f1;
      first_groups[k] = result.groups;
    } else if (result.groups != first_groups[k]) {
      out->Fail(what + ": a repeated round gave other groups");
    }
    ++rounds;
  } while ((rounds % kFixturesPerRun != 0 ||
            SecondsSince(start) < ctx.seconds) &&
           out->errors.empty());

  // The checks of round 0 (union-find, 200 rescored pairs) are small
  // beside the pipeline, so the peak is read at the end.
  out->peak_rss_mb = PeakRssMb();
  out->throughput_per_s = ingest_records / ingest_s;
  out->latency_p50_ms = Median(batch_ms);
  // Mean over the fixtures of the run.
  out->group_f1 = f1_sum / kFixturesPerRun;
  out->figures.push_back(
      {"records", static_cast<double>(trained.fixtures[0].records.size()),
       "records"});
  out->figures.push_back(
      {"pre_cleanup_group_f1", pre_f1_sum / kFixturesPerRun, "ratio"});
  out->figures.push_back({"rounds", static_cast<double>(rounds), "count"});
  out->figures.push_back(
      {"ingest_records_per_s", out->throughput_per_s, "records/s"});
  out->figures.push_back({"ingest_batch_p50_ms", out->latency_p50_ms, "ms"});
  out->figures.push_back({"group_f1", out->group_f1, "ratio"});
}

}  // namespace e2ebench
