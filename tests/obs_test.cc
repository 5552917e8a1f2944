// Test suite for the `obs` observability module, in two halves.
//
// Unit half: registry semantics (stable instrument pointers, name-ordered
// scrapes), the `le` bucket convention with pinned bucket assignments,
// pinned nearest-rank quantiles for both Histogram::Quantile (bucket
// upper-bound) and SampleQuantile (exact — the definition the bench
// harness shares), deterministic text/JSON exposition, and a writers ×
// scrapers stress test (run under TSan in CI) over the lock-free hot
// path.
//
// Inertness half: the differential contract that makes instrumentation
// safe to wire anywhere. An instrumented pipeline run — metrics recording
// live into a registry — must produce identical snapshots and serialized
// state byte-identical outside the two trailing cumulative wall-clock
// doubles (which differ between any two runs, instrumented or not) to an
// uninstrumented run of the same schedule, on both the
// financial-securities and WDC-products fixtures, across thread counts.
// A pipeline restored from a checkpoint must come back uninstrumented (the
// registry pointer never enters checkpoint bytes) until explicitly
// re-wired with set_metrics().

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "datagen/financial_gen.h"
#include "datagen/wdc_gen.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "stream/incremental_pipeline.h"
#include "text/normalize.h"

namespace gralmatch {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Instrument and registry unit tests
// ---------------------------------------------------------------------------

TEST(ObsInstrumentTest, CounterAndGaugeBasics) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);

  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(-7);
  EXPECT_EQ(gauge.Value(), -7);
  gauge.Set(9);
  EXPECT_EQ(gauge.Value(), 9);
}

TEST(ObsInstrumentTest, HistogramBucketAssignmentFollowsTheLeConvention) {
  Histogram histogram;
  histogram.Observe(1e-6);   // exactly on a bound -> that bucket (le)
  histogram.Observe(1.5e-6); // between bounds -> next bucket up
  histogram.Observe(0.0);    // zero -> first bucket
  histogram.Observe(-3.0);   // negative clamps to zero -> first bucket
  histogram.Observe(100.0);  // exactly the last finite bound
  histogram.Observe(250.0);  // past every bound -> overflow

  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts[0], 3u);  // le=1e-6: the 1e-6, 0.0 and clamped -3.0
  EXPECT_EQ(counts[1], 1u);  // le=2e-6: the 1.5e-6
  EXPECT_EQ(counts[kLatencyBucketBounds.size() - 1], 1u);  // le=100
  EXPECT_EQ(counts[kNumLatencyBuckets - 1], 1u);           // overflow
  EXPECT_EQ(histogram.TotalCount(), 6u);
  EXPECT_NEAR(histogram.SumSeconds(), 1e-6 + 1.5e-6 + 100.0 + 250.0, 1e-9);
}

TEST(ObsInstrumentTest, HistogramQuantileIsTheBucketUpperBound) {
  Histogram histogram;
  for (int i = 0; i < 50; ++i) histogram.Observe(1e-6);  // bucket le=1e-6
  for (int i = 0; i < 45; ++i) histogram.Observe(3e-3);  // bucket le=5e-3
  for (int i = 0; i < 5; ++i) histogram.Observe(0.3);    // bucket le=0.5
  // Nearest rank over 100 observations: rank 50 is still in the first
  // bucket, rank 95 in the middle one, rank 99 in the slowest.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.50), 1e-6);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.95), 5e-3);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 0.5);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 0.5);

  // The overflow bucket reports the last finite bound (the dump cannot
  // invent an upper edge for +Inf), and an empty histogram reports 0.
  Histogram overflow;
  for (int i = 0; i < 3; ++i) overflow.Observe(1e4);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.5), kLatencyBucketBounds.back());
  EXPECT_DOUBLE_EQ(Histogram().Quantile(0.5), 0.0);
}

TEST(ObsInstrumentTest, SampleQuantileIsExactNearestRank) {
  // 1..100 delivered unsorted: SampleQuantile must sort internally.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(samples, 1.0), 100.0);
  // ceil(0.99 * 3) = 3 -> the largest of three samples.
  EXPECT_DOUBLE_EQ(SampleQuantile({2.0, 9.0, 4.0}, 0.99), 9.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(SampleQuantile({}, 0.99), 0.0);
}

TEST(ObsRegistryTest, ReturnsStablePointersAndNameOrderedSnapshots) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("zebra_total");
  Counter* b = registry.GetCounter("apple_total");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.GetCounter("zebra_total"), a);  // same name, same pointer
  a->Increment(3);
  registry.GetGauge("depth")->Set(12);
  registry.GetHistogram("latency_seconds")->Observe(1e-3);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "apple_total");  // sorted by name
  EXPECT_EQ(snapshot.counters[1].name, "zebra_total");
  EXPECT_EQ(snapshot.counters[1].value, 3u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 12);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].p50, 1e-3);
}

TEST(ObsRegistryTest, MetricBundlesResolveEveryInstrumentOrStayNull) {
  MetricsRegistry registry;
  const PipelineMetrics pipeline = PipelineMetrics::Create(&registry);
  const ServeMetrics serve = ServeMetrics::Create(&registry);
  const NetMetrics net = NetMetrics::Create(&registry);
  EXPECT_NE(pipeline.scoring_seconds, nullptr);
  EXPECT_NE(pipeline.cascade_escalated, nullptr);
  EXPECT_NE(serve.publish_seconds, nullptr);
  EXPECT_NE(serve.current_epoch, nullptr);
  EXPECT_NE(net.shed_framing_fatal, nullptr);
  // Bundles share the registry's instruments, not copies.
  EXPECT_EQ(pipeline.mutations,
            registry.GetCounter("pipeline_mutations_total"));

  const PipelineMetrics off = PipelineMetrics::Create(nullptr);
  EXPECT_EQ(off.scoring_seconds, nullptr);
  EXPECT_EQ(off.mutations, nullptr);
  EXPECT_EQ(ServeMetrics::Create(nullptr).publish_seconds, nullptr);
  EXPECT_EQ(NetMetrics::Create(nullptr).requests_served, nullptr);
}

TEST(ObsDumpTest, TextDumpIsDeterministicWithCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("events_total")->Increment(3);
  registry.GetGauge("depth")->Set(-2);
  Histogram* histogram = registry.GetHistogram("span_seconds");
  histogram->Observe(1.5e-6);  // bucket le=2e-06
  histogram->Observe(250.0);   // overflow

  const std::string text = DumpMetricsText(registry);
  EXPECT_NE(text.find("# TYPE events_total counter\nevents_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth -2\n"), std::string::npos);
  // Buckets are cumulative at dump time: empty below 2e-06, then 1 for
  // every finite bucket, and +Inf picks up the overflow observation.
  EXPECT_NE(text.find("span_seconds_bucket{le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_bucket{le=\"100\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("span_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("span_seconds{quantile=\"0.5\"} 2e-06\n"),
            std::string::npos);
  // Deterministic: an unchanged registry dumps the same bytes.
  EXPECT_EQ(DumpMetricsText(registry), text);
}

TEST(ObsDumpTest, JsonDumpCarriesTheSameNumbers) {
  MetricsRegistry registry;
  registry.GetCounter("events_total")->Increment(7);
  registry.GetHistogram("span_seconds")->Observe(1e-3);
  const std::string json = DumpMetricsJson(registry);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"events_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"span_seconds\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":0.001"), std::string::npos);
}

TEST(ObsDumpTest, TraceScopeRecordsOnceOnDestructionAndNullIsANoOp) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("span_seconds");
  { TraceScope span(histogram); }
  EXPECT_EQ(histogram->TotalCount(), 1u);
  { TraceScope noop(nullptr); }  // must not crash
  EXPECT_EQ(histogram->TotalCount(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: writers on the lock-free hot path racing registration and
// scrapes. Run under TSan in CI — the assertions here are secondary to the
// absence of data-race reports.
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, ConcurrentWritersAndScrapersAreRaceFree) {
  constexpr size_t kWriters = 8;
  constexpr size_t kIterations = 2000;
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("shared_total");
  Histogram* histogram = registry.GetHistogram("shared_seconds");
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      ASSERT_GE(snapshot.counters.size(), 1u);
      const std::string text = DumpMetricsText(registry);
      ASSERT_NE(text.find("shared_total"), std::string::npos);
    }
  });

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        counter->Increment();
        histogram->Observe(static_cast<double>(i % 7) * 1e-5);
        registry.GetGauge("writer_gauge")->Set(static_cast<int64_t>(i));
        if (i % 64 == 0) {
          // Race registration against the scraper too.
          registry.GetCounter("writer_" + std::to_string(t) + "_total")
              ->Increment();
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter->Value(), kWriters * kIterations);
  EXPECT_EQ(histogram->TotalCount(), kWriters * kIterations);
  const MetricsSnapshot final_snapshot = registry.Snapshot();
  EXPECT_EQ(final_snapshot.counters.size(), 1u + kWriters);
}

// ---------------------------------------------------------------------------
// Inertness differential: instrumented == uninstrumented, bitwise
// ---------------------------------------------------------------------------

/// Deterministic token-Jaccard matcher (as in the stream tests) so both
/// fixtures score meaningfully.
class JaccardMatcher : public PairwiseMatcher {
 public:
  std::string name() const override { return "jaccard"; }
  std::string Fingerprint() const override { return "jaccard#1"; }
  double MatchProbability(const Record& a, const Record& b) const override {
    const auto ta = Tokens(a);
    const auto tb = Tokens(b);
    if (ta.empty() && tb.empty()) return 0.0;
    size_t common = 0, ia = 0, ib = 0;
    while (ia < ta.size() && ib < tb.size()) {
      if (ta[ia] < tb[ib]) {
        ++ia;
      } else if (tb[ib] < ta[ia]) {
        ++ib;
      } else {
        ++common, ++ia, ++ib;
      }
    }
    const size_t total = ta.size() + tb.size() - common;
    return static_cast<double>(common) /
           static_cast<double>(total == 0 ? 1 : total);
  }

 private:
  static std::vector<std::string> Tokens(const Record& rec) {
    auto toks = TokenizeContentWords(rec.AllText());
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  }
};

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

std::vector<Record> FinancialRecords() {
  SyntheticConfig config;
  config.seed = 505;
  config.num_groups = 40;
  return WithUids(FinancialGenerator(config).Generate().securities.records);
}

std::vector<Record> WdcRecords() {
  WdcConfig config;
  config.num_entities = 80;
  config.seed = 77;
  return WithUids(WdcProductsGenerator(config).Generate().records);
}

IncrementalPipelineConfig StreamConfig(size_t num_threads) {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 6;
  config.pipeline.cleanup.mu = 3;
  config.pipeline.pre_cleanup_threshold = 9;
  config.pipeline.match_threshold = 0.3;
  config.pipeline.num_threads = num_threads;
  config.token.top_n = 5;
  return config;
}

/// Ingest `records` in three batches.
void IngestInBatches(IncrementalPipeline* pipeline,
                     const std::vector<Record>& records,
                     const PairwiseMatcher& matcher) {
  const size_t batch_size = (records.size() + 2) / 3;
  for (size_t begin = 0; begin < records.size(); begin += batch_size) {
    const size_t end = std::min(begin + batch_size, records.size());
    std::vector<Record> batch(records.begin() + static_cast<long>(begin),
                              records.begin() + static_cast<long>(end));
    ASSERT_TRUE(pipeline->Ingest(batch, matcher).ok());
  }
}

void ExpectSameSnapshot(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.predicted_pairs, b.predicted_pairs);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.pre_cleanup_components, b.pre_cleanup_components);
}

/// Byte size of the cumulative wall-clock totals (two doubles: scoring and
/// cleanup seconds) that close the incremental body. They are run-dependent
/// even between two uninstrumented runs of the same schedule, so the
/// differential excises exactly them; everything before must be
/// bitwise-identical.
constexpr size_t kWallClockTrailerBytes = 2 * sizeof(double);

std::string DeterministicBody(const IncrementalPipeline& pipeline) {
  BinaryWriter writer;
  EXPECT_TRUE(pipeline.Serialize(&writer).ok());
  std::string body = writer.buffer();
  EXPECT_GE(body.size(), kWallClockTrailerBytes);
  body.resize(body.size() - kWallClockTrailerBytes);
  return body;
}

TEST(ObsInertnessTest, InstrumentedIncrementalRunIsBitwiseIdentical) {
  JaccardMatcher matcher;
  for (const auto& records : {FinancialRecords(), WdcRecords()}) {
    for (const size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("records=" + std::to_string(records.size()) +
                   " threads=" + std::to_string(num_threads));
      IncrementalPipelineConfig off_config = StreamConfig(num_threads);
      IncrementalPipeline off(off_config);
      IngestInBatches(&off, records, matcher);

      MetricsRegistry registry;
      IncrementalPipelineConfig on_config = StreamConfig(num_threads);
      on_config.pipeline.metrics = &registry;
      IncrementalPipeline on(on_config);
      IngestInBatches(&on, records, matcher);

      // The instrumented run really recorded...
      EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(), 3u);
      EXPECT_EQ(registry.GetCounter("pipeline_records_added_total")->Value(),
                records.size());
      EXPECT_GT(
          registry.GetHistogram("pipeline_scoring_seconds")->TotalCount(), 0u);
      // ...and changed nothing: identical snapshots and byte-identical
      // serialized state outside the wall-clock trailer (which also proves
      // no registry state leaked into the serialized config).
      ExpectSameSnapshot(on.Snapshot().ValueOrDie(),
                         off.Snapshot().ValueOrDie());
      EXPECT_EQ(DeterministicBody(on), DeterministicBody(off));
    }
  }
}

TEST(ObsInertnessTest, RestoredPipelineIsUninstrumentedUntilRewired) {
  JaccardMatcher matcher;
  const std::vector<Record> records = FinancialRecords();

  MetricsRegistry registry;
  IncrementalPipelineConfig config = StreamConfig(2);
  config.pipeline.metrics = &registry;
  IncrementalPipeline pipeline(config);
  IngestInBatches(&pipeline, records, matcher);

  auto restored =
      ParseCheckpoint(SerializeCheckpoint(pipeline).ValueOrDie(), matcher);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The registry pointer is runtime-only state: it never survives the
  // round trip, whatever the saved pipeline had wired.
  EXPECT_EQ((*restored)->config().pipeline.metrics, nullptr);

  const uint64_t mutations_before =
      registry.GetCounter("pipeline_mutations_total")->Value();
  std::vector<Record> extra;
  Record rec;
  rec.Set("name", "restored probe record");
  rec.Set("_uid", "probe");
  extra.push_back(std::move(rec));
  ASSERT_TRUE((*restored)->Ingest(extra, matcher).ok());
  EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(),
            mutations_before);  // uninstrumented: nothing recorded

  (*restored)->set_metrics(&registry);
  ASSERT_TRUE((*restored)->Ingest({}, matcher).ok());
  EXPECT_EQ(registry.GetCounter("pipeline_mutations_total")->Value(),
            mutations_before + 1);  // re-wired: recording resumes
}

}  // namespace
}  // namespace obs
}  // namespace gralmatch
