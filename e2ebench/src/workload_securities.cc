// securities_stream: securities fixtures streamed through the incremental
// pipeline in equal ingest batches, a checkpoint file round trip, then
// corrections (removes + updates), each step followed by Snapshot + Publish,
// an RPC serving tail, and an in-memory checkpoint of the churned state.

#include <algorithm>
#include <memory>

#include "checks.h"
#include "common/rng.h"
#include "datagen/financial_gen.h"
#include "harness.h"
#include "matching/baselines.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "serve/checkpoint.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using gralmatch::EntityId;
using gralmatch::IncrementalPipeline;
using gralmatch::PipelineResult;
using gralmatch::Record;
using gralmatch::RecordId;

constexpr size_t kBatches = 16;
constexpr size_t kChurnRounds = 4;
/// Seed-independent input of the churned-checkpoint load (see README:
/// that load fails on every input today, so its input is fixed).
constexpr uint64_t kProbeSeed = 7;
constexpr size_t kProbeGroups = 1000;
/// RPC requests of the serving tail that ends each round.
constexpr size_t kServeQueries = 2000;
/// How ParseCheckpoint rejects the probe image today (README, "Known failing
/// operation"). A load that fails with any other error is a correctness error.
constexpr const char* kKnownLoadFault =
    "candidate provenance bits disagree with the configured blockers";

/// One correction round: ~5% of the live records removed and ~5% replaced.
struct ChurnStep {
  std::vector<RecordId> removals;
  std::vector<gralmatch::RecordUpdate> updates;
  std::vector<EntityId> update_entities;
};

ChurnStep MakeChurn(const IncrementalPipeline& pipeline,
                    const SecuritiesFixture& fixture, gralmatch::Rng* rng) {
  std::vector<RecordId> live;
  for (size_t id = 0; id < pipeline.records().size(); ++id) {
    if (pipeline.is_alive(static_cast<RecordId>(id))) {
      live.push_back(static_cast<RecordId>(id));
    }
  }
  const size_t churn = live.size() / 20 + 1;
  for (size_t k = 0; k < 2 * churn; ++k) {
    const size_t j = k + static_cast<size_t>(rng->Uniform(live.size() - k));
    std::swap(live[k], live[j]);
  }
  ChurnStep step;
  step.removals.assign(live.begin(), live.begin() + static_cast<long>(churn));
  std::sort(step.removals.begin(), step.removals.end());
  for (size_t k = churn; k < 2 * churn; ++k) {
    const size_t source = static_cast<size_t>(rng->Uniform(fixture.records.size()));
    gralmatch::RecordUpdate update;
    update.id = live[k];
    update.record = fixture.records[source];
    step.updates.push_back(std::move(update));
    step.update_entities.push_back(fixture.entity_of[source]);
  }
  return step;
}

/// Ingest everything, apply one churn step and checkpoint the result.
struct Probe {
  std::string image;
  PipelineResult snapshot;
};

Probe BuildChurnedProbe() {
  const SecuritiesFixture fixture =
      MakeSecuritiesFixture(kProbeSeed, kProbeGroups, nullptr);
  IncrementalPipeline pipeline(SecuritiesConfig(nullptr));
  gralmatch::HeuristicIdMatcher matcher;
  pipeline.Ingest(fixture.records, matcher).ValueOrDie();
  gralmatch::Rng rng(kProbeSeed);
  ChurnStep step = MakeChurn(pipeline, fixture, &rng);
  pipeline.Update(step.updates, matcher).ValueOrDie();
  Probe probe;
  probe.snapshot = pipeline.Snapshot().ValueOrDie();
  probe.image = gralmatch::SerializeCheckpoint(pipeline).ValueOrDie();
  return probe;
}

/// Serve the published epoch over loopback RPC: start a NetServer on the
/// round's MatchService and check seeded GroupOf / Members replies against
/// the published snapshot.
void ServeTail(const Context& ctx, const gralmatch::MatchService& service,
               uint64_t seed, RunResult* out) {
  gralmatch::NetServerOptions options;
  options.metrics = ctx.metrics;
  std::unique_ptr<gralmatch::NetServer> server;
  {
    Span span(ctx.tracer, "net.start");
    ++out->attempted;
    auto started = gralmatch::NetServer::Start(&service, options);
    if (!started.ok()) {
      ++out->failed;
      out->Fail("NetServer::Start: " + started.status().ToString());
      return;
    }
    server = std::move(*started);
  }
  auto client = gralmatch::NetClient::Connect(server->port());
  if (!client.ok()) {
    out->Fail("NetClient::Connect: " + client.status().ToString());
    return;
  }
  const gralmatch::MatchSnapshotPtr view = service.View();
  gralmatch::Rng rng(seed ^ 0x5E7E);
  uint64_t wrong = 0;
  for (size_t k = 0; k < kServeQueries; ++k) {
    const bool members = k % 2 == 1;
    const int64_t id = static_cast<int64_t>(rng.Uniform(
        members ? view->num_groups() : view->stats().num_records));
    Span span(ctx.tracer, "net.call");
    ++out->attempted;
    auto reply = members ? (*client)->Members(id) : (*client)->GroupOf(id);
    if (!reply.ok()) {
      ++out->failed;
      out->Fail("RPC: " + reply.status().ToString());
      return;
    }
    if (!ReplyMatches(*view, id, members, *reply)) ++wrong;
  }
  if (wrong > 0) {
    out->Fail(std::to_string(wrong) +
              " RPC replies differ from the published snapshot");
  }
}

/// Per-run accumulators over all rounds.
struct Samples {
  /// Every step that ends in Publish: ingest batches and churn steps.
  std::vector<double> step_ms;
  std::vector<double> batch_ms;
  /// Time of the round's measured work: ingest, the file round trip, churn,
  /// the serving tail and the churned save (not the checks, not the probe).
  double work_s = 0.0;
  double ingest_s = 0.0;
  double ingest_records = 0.0;
  double churn_s = 0.0;
  double churn_records = 0.0;
  std::vector<double> save_s;
  double checkpoint_bytes = 0.0;
  /// Final groups of each fixture's first round; every later round on the
  /// same fixture must repeat them.
  std::vector<std::vector<std::vector<gralmatch::NodeId>>> first_groups =
      std::vector<std::vector<std::vector<gralmatch::NodeId>>>(
          kFixturesPerRun);
};

/// One round on `fixtures[k]`. With `check` it also runs the output
/// checks; those stay out of every timed figure.
void RunRound(const Context& ctx, const std::vector<SecuritiesFixture>& fixtures,
              size_t k, const Probe& probe, bool check, Samples* samples,
              RunResult* out) {
  const SecuritiesFixture& fixture = fixtures[k];
  const gralmatch::IncrementalPipelineConfig config =
      SecuritiesConfig(ctx.metrics);
  gralmatch::HeuristicIdMatcher matcher;
  IncrementalPipeline pipeline(config);
  gralmatch::MatchService service(ctx.metrics);
  std::vector<EntityId> entity_of;

  // Ingest in equal batches, each followed by Snapshot + Publish.
  const size_t n = fixture.records.size();
  const size_t batch_size = (n + kBatches - 1) / kBatches;
  for (size_t begin = 0; begin < n; begin += batch_size) {
    const size_t end = std::min(begin + batch_size, n);
    std::vector<Record> batch(fixture.records.begin() + static_cast<long>(begin),
                              fixture.records.begin() + static_cast<long>(end));
    entity_of.insert(entity_of.end(),
                     fixture.entity_of.begin() + static_cast<long>(begin),
                     fixture.entity_of.begin() + static_cast<long>(end));
    const auto start = Clock::now();
    if (!IngestSnapshotPublish(ctx, &pipeline, &service, batch, matcher,
                               out)) {
      return;
    }
    const double seconds = SecondsSince(start);
    samples->step_ms.push_back(seconds * 1e3);
    samples->batch_ms.push_back(seconds * 1e3);
    samples->ingest_s += seconds;
    samples->work_s += seconds;
    samples->ingest_records += static_cast<double>(end - begin);
  }
  if (check) {
    const PipelineResult snapshot = pipeline.Snapshot().ValueOrDie();
    ExpectSameResult(snapshot,
                     SurvivorReference(pipeline.records(), pipeline.alive(),
                                       config, matcher),
                     "securities_stream after ingest", out);
    CheckGroupStructure(snapshot, pipeline.alive(), config.pipeline.cleanup.mu,
                        "securities_stream after ingest", out);
  }

  // A tombstone-free checkpoint round trip of the ingested state, through a
  // file as a restart reads it.
  {
    const std::string path = ctx.scratch_dir + "/securities_stream.ckpt";
    const auto start = Clock::now();
    gralmatch::Status saved = gralmatch::Status::OK();
    {
      Span span(ctx.tracer, "serve.checkpoint_file_save");
      ++out->attempted;
      saved = gralmatch::SaveCheckpoint(pipeline, path);
    }
    if (!saved.ok()) {
      ++out->failed;
      out->Fail("SaveCheckpoint: " + saved.ToString());
      return;
    }
    gralmatch::Result<std::unique_ptr<IncrementalPipeline>> loaded =
        gralmatch::Status::Internal("not loaded");
    {
      Span span(ctx.tracer, "serve.checkpoint_file_load");
      ++out->attempted;
      loaded = gralmatch::LoadCheckpoint(path, matcher);
    }
    samples->work_s += SecondsSince(start);
    if (!loaded.ok()) {
      ++out->failed;
      out->Fail("LoadCheckpoint: " + loaded.status().ToString());
      return;
    }
    if (check) {
      CheckCheckpointRoundTrip(
          gralmatch::SerializeCheckpoint(pipeline).ValueOrDie(),
          pipeline.Snapshot().ValueOrDie(), **loaded, "post-ingest checkpoint",
          out);
    }
  }

  // Correction rounds: removes, then updates, then Snapshot + Publish.
  gralmatch::Rng rng(fixture.seed * 0x9E3779B97F4A7C15ULL + 0xC0FFEE);
  for (size_t round = 0; round < kChurnRounds; ++round) {
    ChurnStep step = MakeChurn(pipeline, fixture, &rng);
    const auto start = Clock::now();
    {
      Span span(ctx.tracer, "stream.mutate");
      ++out->attempted;
      auto report = pipeline.Remove(step.removals, matcher);
      if (!report.ok()) {
        ++out->failed;
        out->Fail("Remove: " + report.status().ToString());
        return;
      }
      out->layers.Add(*report);
    }
    {
      Span span(ctx.tracer, "stream.mutate");
      ++out->attempted;
      auto report = pipeline.Update(step.updates, matcher);
      if (!report.ok()) {
        ++out->failed;
        out->Fail("Update: " + report.status().ToString());
        return;
      }
      out->layers.Add(*report);
    }
    if (!SnapshotPublish(ctx, pipeline, &service, out)) return;
    const double seconds = SecondsSince(start);
    samples->step_ms.push_back(seconds * 1e3);
    samples->churn_s += seconds;
    samples->work_s += seconds;
    samples->churn_records +=
        static_cast<double>(step.removals.size() + step.updates.size());
    for (RecordId id : step.removals) entity_of[static_cast<size_t>(id)] = -1;
    for (const auto& update : step.updates) {
      entity_of[static_cast<size_t>(update.id)] = -1;
    }
    entity_of.insert(entity_of.end(), step.update_entities.begin(),
                     step.update_entities.end());
  }
  const PipelineResult churned = pipeline.Snapshot().ValueOrDie();
  out->layers.SetCleanup(churned);
  if (entity_of.size() != pipeline.records().size()) {
    out->Fail("record ids after churn do not follow the update order");
    return;
  }
  if (check) {
    ExpectSameResult(churned,
                     SurvivorReference(pipeline.records(), pipeline.alive(),
                                       config, matcher),
                     "securities_stream after churn", out);
    CheckGroupStructure(churned, pipeline.alive(), config.pipeline.cleanup.mu,
                        "securities_stream after churn", out);
    out->group_f1 = GroupF1(churned.groups, entity_of);
  }
  std::vector<std::vector<gralmatch::NodeId>>& first_groups =
      samples->first_groups[k];
  if (first_groups.empty()) {
    first_groups = churned.groups;
  } else if (churned.groups != first_groups) {
    out->Fail("securities_stream: a repeated round gave other groups");
  }

  auto start = Clock::now();
  ServeTail(ctx, service, fixture.seed, out);
  samples->work_s += SecondsSince(start);

  // The churned state's checkpoint: saved here, and the load of a churned
  // checkpoint tried on the fixed probe image.
  start = Clock::now();
  auto image = SaveImage(ctx, pipeline, out);
  if (!image.ok()) return;
  const double save_s = SecondsSince(start);
  samples->save_s.push_back(save_s);
  samples->work_s += save_s;
  samples->checkpoint_bytes = static_cast<double>(image->size());
  auto loaded = LoadImage(ctx, probe.image, matcher, out);
  if (!loaded.ok()) {
    if (loaded.status().message().find(kKnownLoadFault) == std::string::npos) {
      out->Fail("churned checkpoint load failed with an unexpected error: " +
                loaded.status().ToString());
    } else if (check) {
      out->notes.push_back("churned checkpoint load failed: " +
                           loaded.status().ToString());
    }
  } else {
    CheckCheckpointRoundTrip(probe.image, probe.snapshot, **loaded,
                             "churned checkpoint", out);
  }
}

}  // namespace

gralmatch::IncrementalPipelineConfig SecuritiesConfig(
    gralmatch::obs::MetricsRegistry* metrics) {
  gralmatch::IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 25;
  config.pipeline.cleanup.mu = 5;
  config.pipeline.pre_cleanup_threshold = 50;
  config.pipeline.num_threads = 1;
  config.pipeline.metrics = metrics;
  config.token.top_n = 5;
  return config;
}

SecuritiesFixture MakeSecuritiesFixture(uint64_t seed, size_t groups,
                                        Tracer* tracer) {
  gralmatch::SyntheticConfig config;
  config.seed = seed;
  config.num_groups = groups;
  gralmatch::FinancialBenchmark bench;
  {
    Span span(tracer, "datagen.generate");
    bench = gralmatch::FinancialGenerator(config).Generate();
  }
  SecuritiesFixture fixture;
  fixture.seed = seed;
  const auto& table = bench.securities.records;
  fixture.records.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    fixture.records.push_back(table.at(static_cast<RecordId>(i)));
    fixture.entity_of.push_back(
        bench.securities.truth.entity_of(static_cast<RecordId>(i)));
  }
  return fixture;
}

void RunSecuritiesStream(const Context& ctx, RunResult* out) {
  std::vector<SecuritiesFixture> fixtures(kFixturesPerRun);
  std::vector<double> setups;
  for (int rep = 0; rep < ctx.setup_reps; ++rep) {
    const auto start = Clock::now();
    Span span(ctx.tracer, "workload.setup");
    for (size_t k = 0; k < kFixturesPerRun; ++k) {
      fixtures[k] = MakeSecuritiesFixture(FixtureSeed(ctx.seed, k),
                                          kSecuritiesGroups, ctx.tracer);
    }
    setups.push_back(SecondsSince(start));
  }
  out->setup_s = Median(setups);
  // The probe is input of the known failing operation, not of the workload:
  // it is built once, outside the timed set-up.
  const Probe probe = BuildChurnedProbe();

  // Round k runs on fixture k mod kFixturesPerRun, and the run ends after
  // whole passes over the fixtures. Round 0 runs no checks, so the peak
  // resident set read after it holds set-up and the workload only; round 1
  // runs the checks.
  Samples samples;
  const auto start = Clock::now();
  size_t rounds = 0;
  do {
    Span span(ctx.tracer, "workload.round");
    RunRound(ctx, fixtures, rounds % kFixturesPerRun, probe, rounds == 1,
             &samples, out);
    if (rounds == 0) out->peak_rss_mb = PeakRssMb();
    ++rounds;
  } while ((rounds % kFixturesPerRun != 0 ||
            SecondsSince(start) < ctx.seconds) &&
           out->errors.empty());

  const double ingest_per_s = samples.ingest_records / samples.ingest_s;
  out->throughput_per_s =
      (samples.ingest_records + samples.churn_records) / samples.work_s;
  out->latency_p50_ms = Median(samples.step_ms);
  out->figures.push_back(
      {"records", static_cast<double>(fixtures[1].records.size()), "records"});
  out->figures.push_back({"rounds", static_cast<double>(rounds), "count"});
  out->figures.push_back({"ingest_records_per_s", ingest_per_s, "records/s"});
  out->figures.push_back(
      {"ingest_batch_p50_ms", Median(samples.batch_ms), "ms"});
  out->figures.push_back({"churn_records_per_s",
                          samples.churn_records / samples.churn_s,
                          "records/s"});
  out->figures.push_back({"checkpoint_save_s", Median(samples.save_s), "s"});
  out->figures.push_back({"checkpoint_bytes", samples.checkpoint_bytes,
                          "bytes"});
  out->figures.push_back({"group_f1", out->group_f1, "ratio"});
}

}  // namespace e2ebench
