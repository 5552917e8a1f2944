// Google-benchmark microbenchmarks for the performance-critical kernels:
// graph algorithms (Stoer-Wagner min cut, Brandes edge betweenness,
// connected components), the parallel cleanup hot path at 1/2/4 threads,
// text kernels and transformer inference.
//
// Thread-count convention for comparing BENCH_graph_micro.json artifacts:
// the `/threads:N` suffix of BM_GraphCleanup names the worker count; speedup
// claims compare `/threads:N real_time` against `/threads:1` *of the same
// artifact* (same machine, same build) — never across machines.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "blocking/id_overlap.h"
#include "blocking/token_overlap.h"
#include "common/rng.h"
#include "core/cleanup.h"
#include "core/pipeline.h"
#include "datagen/financial_gen.h"
#include "exec/parallel.h"
#include "graph/betweenness.h"
#include "graph/graph.h"
#include "graph/min_cut.h"
#include "matching/baselines.h"
#include "matching/transformer_matcher.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"
#include "serve/match_service.h"
#include "stream/incremental_pipeline.h"
#include "text/similarity.h"
#include "text/vocab.h"

namespace gralmatch {
namespace {

/// Random connected graph: spanning tree plus 2n extra edges.
Graph MakeRandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (size_t v = 1; v < n; ++v) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(v)), static_cast<NodeId>(v))
        .ValueOrDie();
  }
  // Discard-free here: ValueOrDie asserts success; ids are in range.
  for (size_t k = 0; k < 2 * n; ++k) {
    NodeId a = static_cast<NodeId>(rng.Uniform(n));
    NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (a != b) (void)g.AddEdge(a, b).ValueOrDie();
  }
  return g;
}

void BM_StoerWagnerMinCut(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeRandomGraph(n, 1);
  auto comp = g.ComponentOf(0);
  for (auto _ : state) {
    auto cut = StoerWagnerMinCut(g, comp);
    benchmark::DoNotOptimize(cut);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_StoerWagnerMinCut)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_EdgeBetweenness(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeRandomGraph(n, 2);
  auto comp = g.ComponentOf(0);
  for (auto _ : state) {
    auto bc = EdgeBetweenness(g, comp);
    benchmark::DoNotOptimize(bc);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_EdgeBetweenness)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_ConnectedComponents(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeRandomGraph(n, 3);
  for (auto _ : state) {
    auto comps = g.ConnectedComponents();
    benchmark::DoNotOptimize(comps);
  }
}
BENCHMARK(BM_ConnectedComponents)->Arg(1000)->Arg(10000);

/// The cleanup hot path's workload shape: many independent oversized noisy
/// communities (no cross edges), each of which phase 1 must min-cut apart
/// and phase 2 must trim down to mu.
Graph MakeClusteredGraph(size_t communities, size_t community_size,
                         uint64_t seed) {
  Rng rng(seed);
  Graph g(communities * community_size);
  for (size_t c = 0; c < communities; ++c) {
    const size_t begin = c * community_size;
    const size_t end = begin + community_size;
    // Discard audited: synthetic in-range endpoints, so AddEdge cannot
    // fail; the edge ids are unused.
    for (size_t a = begin; a < end; ++a) {
      // Ring for connectivity plus random chords.
      size_t b = a + 1 == end ? begin : a + 1;
      (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
      for (size_t c2 = a + 2; c2 < end; ++c2) {
        if (rng.Bernoulli(0.12)) {
          (void)g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(c2));
        }
      }
    }
  }
  return g;
}

/// The GraLMatch cleanup at range(0) worker threads. Components are
/// independent, so the parallel path fans them out; /threads:1 is the serial
/// reference the speedup is measured against (same artifact only).
void BM_GraphCleanup(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Graph g = MakeClusteredGraph(/*communities=*/12, /*community_size=*/48, 7);
  GraphCleanupConfig config;
  config.gamma = 24;
  config.mu = 6;
  GraLMatchCleanup cleanup(config);
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    g.RestoreAllEdges();  // O(E) memset, negligible next to the cleanup
    auto groups = cleanup.Run(&g, nullptr, pool_ptr);
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_GraphCleanup)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads")
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Dispatch overhead of the ParallelFor chunking for a cheap body.
void BM_ParallelForDispatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads);
  std::vector<double> out(4096);
  for (auto _ : state) {
    ParallelFor(
        &pool, 0, out.size(),
        [&out](size_t i) { out[i] = static_cast<double>(i) * 0.5; },
        /*grain=*/64);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads")
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Incremental ingestion vs. full recomputation. Both benchmarks process the
// same schedule — the securities fixture arriving in `batches` equal batches
// with a result required after every batch — so the ratio of the two rows is
// the streaming win. Compare rows within one artifact only.
// ---------------------------------------------------------------------------

/// Securities records of a mid-sized financial fixture (shared, built once).
const std::vector<Record>& IncrementalBenchRecords() {
  static const std::vector<Record>* records = [] {
    SyntheticConfig config;
    config.seed = 505;
    config.num_groups = 120;
    FinancialBenchmark bench = FinancialGenerator(config).Generate();
    auto* out = new std::vector<Record>();
    out->reserve(bench.securities.records.size());
    for (size_t i = 0; i < bench.securities.records.size(); ++i) {
      out->push_back(bench.securities.records.at(static_cast<RecordId>(i)));
    }
    return out;
  }();
  return *records;
}

IncrementalPipelineConfig IncrementalBenchConfig() {
  IncrementalPipelineConfig config;
  config.pipeline.cleanup.gamma = 25;
  config.pipeline.cleanup.mu = 5;
  config.pipeline.pre_cleanup_threshold = 50;
  config.token.top_n = 5;
  return config;
}

void BM_IncrementalIngest(benchmark::State& state) {
  const size_t batches = static_cast<size_t>(state.range(0));
  const std::vector<Record>& records = IncrementalBenchRecords();
  const size_t batch_size = (records.size() + batches - 1) / batches;
  HeuristicIdMatcher matcher;
  for (auto _ : state) {
    IncrementalPipeline pipeline(IncrementalBenchConfig());
    for (size_t offset = 0; offset < records.size(); offset += batch_size) {
      const size_t end = std::min(offset + batch_size, records.size());
      std::vector<Record> batch(records.begin() + static_cast<long>(offset),
                                records.begin() + static_cast<long>(end));
      pipeline.Ingest(batch, matcher).ValueOrDie();
      PipelineResult result = pipeline.Snapshot().ValueOrDie();
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_IncrementalIngest)->Arg(4)->Arg(16)->ArgName("batches")
    ->Unit(benchmark::kMillisecond);

void BM_FullRecompute(benchmark::State& state) {
  const size_t batches = static_cast<size_t>(state.range(0));
  const std::vector<Record>& records = IncrementalBenchRecords();
  const size_t batch_size = (records.size() + batches - 1) / batches;
  const IncrementalPipelineConfig config = IncrementalBenchConfig();
  HeuristicIdMatcher matcher;
  // Prefix tables built once: the timed region is blocking + scoring +
  // cleanup from scratch after every batch, which is what the incremental
  // path replaces.
  std::vector<Dataset> prefixes;
  for (size_t offset = 0; offset < records.size(); offset += batch_size) {
    const size_t end = std::min(offset + batch_size, records.size());
    Dataset ds;
    for (size_t i = 0; i < end; ++i) ds.records.Add(records[i]);
    prefixes.push_back(std::move(ds));
  }
  for (auto _ : state) {
    for (const Dataset& prefix : prefixes) {
      CandidateSet candidates;
      IdOverlapBlocker().AddCandidates(prefix, &candidates);
      TokenOverlapBlocker(config.token).AddCandidates(prefix, &candidates);
      PipelineResult result = EntityGroupPipeline(config.pipeline)
                                  .Run(prefix, candidates.ToVector(), matcher);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_FullRecompute)->Arg(4)->Arg(16)->ArgName("batches")
    ->Unit(benchmark::kMillisecond);

// BM_CrudChurn measures steady-state corrections on a fully-ingested
// pipeline: each round removes ~5% of the live records, updates another
// ~5% (exact remove + re-add in one dirty pass), and snapshots. The
// timed region starts after the initial ingest, so the rows price the
// retraction path — candidate deltas, cache eviction, dirty-component
// re-cleaning — rather than first-time scoring. Compare against the
// BM_IncrementalIngest rows of the same artifact.
void BM_CrudChurn(benchmark::State& state) {
  const size_t rounds = static_cast<size_t>(state.range(0));
  const std::vector<Record>& records = IncrementalBenchRecords();
  HeuristicIdMatcher matcher;
  for (auto _ : state) {
    state.PauseTiming();
    IncrementalPipeline pipeline(IncrementalBenchConfig());
    pipeline.Ingest(records, matcher).ValueOrDie();
    Rng rng(99);
    state.ResumeTiming();
    for (size_t round = 0; round < rounds; ++round) {
      std::vector<RecordId> live;
      for (size_t id = 0; id < pipeline.records().size(); ++id) {
        if (pipeline.is_alive(static_cast<RecordId>(id))) {
          live.push_back(static_cast<RecordId>(id));
        }
      }
      const size_t churn = live.size() / 20 + 1;
      for (size_t k = 0; k < 2 * churn; ++k) {
        const size_t j = k + static_cast<size_t>(rng.Uniform(live.size() - k));
        std::swap(live[k], live[j]);
      }
      std::vector<RecordId> removals(live.begin(),
                                     live.begin() + static_cast<long>(churn));
      std::sort(removals.begin(), removals.end());
      std::vector<RecordUpdate> updates;
      updates.reserve(churn);
      for (size_t k = churn; k < 2 * churn; ++k) {
        RecordUpdate update;
        update.id = live[k];
        update.record = records[rng.Uniform(records.size())];
        updates.push_back(std::move(update));
      }
      pipeline.Remove(removals, matcher).ValueOrDie();
      pipeline.Update(updates, matcher).ValueOrDie();
      PipelineResult result = pipeline.Snapshot().ValueOrDie();
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_CrudChurn)->Arg(4)->Arg(16)->ArgName("rounds")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Checkpointing and serving. BM_CheckpointSave/Load measure the in-memory
// serialize/parse cost of a fully-ingested pipeline (file I/O excluded:
// it's machine noise); BM_ServeQuery measures the lock-free read path under
// a published snapshot. Compare rows within one artifact only.
// ---------------------------------------------------------------------------

/// A pipeline with the full incremental fixture ingested (shared, built
/// once).
const IncrementalPipeline& CheckpointBenchPipeline() {
  static const IncrementalPipeline* pipeline = [] {
    auto* p = new IncrementalPipeline(IncrementalBenchConfig());
    HeuristicIdMatcher matcher;
    p->Ingest(IncrementalBenchRecords(), matcher).ValueOrDie();
    return p;
  }();
  return *pipeline;
}

void BM_CheckpointSave(benchmark::State& state) {
  const IncrementalPipeline& pipeline = CheckpointBenchPipeline();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string image = SerializeCheckpoint(pipeline).ValueOrDie();
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CheckpointSave)->Unit(benchmark::kMillisecond);

void BM_CheckpointLoad(benchmark::State& state) {
  const std::string image =
      SerializeCheckpoint(CheckpointBenchPipeline()).ValueOrDie();
  HeuristicIdMatcher matcher;
  for (auto _ : state) {
    auto restored = ParseCheckpoint(image, matcher);
    if (!restored.ok()) {
      state.SkipWithError("checkpoint load failed");
      break;
    }
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(static_cast<int64_t>(image.size()) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CheckpointLoad)->Unit(benchmark::kMillisecond);

void BM_ServeQuery(benchmark::State& state) {
  const IncrementalPipeline& pipeline = CheckpointBenchPipeline();
  MatchService service;
  service.Publish(pipeline.Snapshot().ValueOrDie(), pipeline.records().size());
  const size_t n = pipeline.records().size();
  uint32_t rng_state = 1;
  for (auto _ : state) {
    rng_state = rng_state * 1664525u + 1013904223u;
    MatchSnapshotPtr view = service.View();
    const RecordId r = static_cast<RecordId>(rng_state % n);
    const GroupId gid = view->GroupOf(r);
    benchmark::DoNotOptimize(view->Members(gid).size());
  }
}
BENCHMARK(BM_ServeQuery);

// ---------------------------------------------------------------------------
// Networked serving. BM_NetQuery measures the full RPC round trip
// (frame encode -> loopback socket -> server decode -> snapshot query ->
// reply) against BM_ServeQuery's in-process baseline. /threads:N runs N
// concurrent clients, each on its own connection: items_per_second at the
// highest thread count is the saturation QPS, and the p50_us / p99_us
// counters are per-thread round-trip latency percentiles (averaged across
// threads; exact nearest-rank via obs::SampleQuantile).
// BM_NetQueryBurst pipelines `burst` requests per call — the batching
// path: one epoch resolution and one send per burst. Compare rows within
// one artifact only.
// ---------------------------------------------------------------------------

/// One server over the checkpoint-bench pipeline's published snapshot
/// (shared; started once).
NetServer& NetBenchServer() {
  struct Shared {
    MatchService service;
    std::unique_ptr<NetServer> server;
  };
  static Shared* shared = [] {
    auto* s = new Shared;
    const IncrementalPipeline& pipeline = CheckpointBenchPipeline();
    s->service.Publish(pipeline.Snapshot().ValueOrDie(),
                       pipeline.records().size());
    NetServerOptions options;
    options.max_connections = 16;
    s->server = NetServer::Start(&s->service, options).ValueOrDie();
    return s;
  }();
  return *shared->server;
}

void BM_NetQuery(benchmark::State& state) {
  auto client = NetClient::Connect(NetBenchServer().port()).ValueOrDie();
  const size_t n = CheckpointBenchPipeline().records().size();
  uint32_t rng_state = static_cast<uint32_t>(state.thread_index()) *
                           2654435761u + 1u;
  std::vector<double> latencies_us;
  for (auto _ : state) {
    rng_state = rng_state * 1664525u + 1013904223u;
    const auto start = std::chrono::steady_clock::now();
    auto reply = client->GroupOf(static_cast<RecordId>(rng_state % n));
    const auto stop = std::chrono::steady_clock::now();
    if (!reply.ok()) {
      state.SkipWithError("net query failed");
      break;
    }
    benchmark::DoNotOptimize(reply->group);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (!latencies_us.empty()) {
    // Exact nearest-rank percentiles via the obs library (the same
    // definition tests/obs_test.cc pins), not an ad-hoc index.
    state.counters["p50_us"] = benchmark::Counter(
        obs::SampleQuantile(latencies_us, 0.50),
        benchmark::Counter::kAvgThreads);
    state.counters["p99_us"] = benchmark::Counter(
        obs::SampleQuantile(latencies_us, 0.99),
        benchmark::Counter::kAvgThreads);
  }
}
BENCHMARK(BM_NetQuery)->ThreadRange(1, 8)->UseRealTime();

void BM_NetQueryBurst(benchmark::State& state) {
  auto client = NetClient::Connect(NetBenchServer().port()).ValueOrDie();
  const size_t n = CheckpointBenchPipeline().records().size();
  const size_t burst_size = static_cast<size_t>(state.range(0));
  uint32_t rng_state = 1;
  for (auto _ : state) {
    std::vector<NetRequest> burst;
    burst.reserve(burst_size);
    for (size_t k = 0; k < burst_size; ++k) {
      rng_state = rng_state * 1664525u + 1013904223u;
      burst.push_back(NetRequest::GroupOf(rng_state % n));
    }
    auto replies = client->Call(burst);
    if (!replies.ok()) {
      state.SkipWithError("net burst failed");
      break;
    }
    benchmark::DoNotOptimize(replies->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(burst_size));
}
BENCHMARK(BM_NetQueryBurst)->Arg(8)->Arg(64)->ArgName("burst");

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "crowdstrike holdings incorporated";
  std::string b = "crowd strike platforms international";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  std::string a = "crowdstrike holdings incorporated";
  std::string b = "crowd strike platforms international";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinkler(a, b));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_VocabEncode(benchmark::State& state) {
  SubwordVocab vocab;
  vocab.Train({"crowdstrike holdings provides security solutions",
               "quantum energy resources limited zurich",
               "data pipeline analytics incorporated"},
              1000);
  std::string text =
      "Quantum CrowdStrike Data Pipeline unseenword123 Zurich Analytics";
  for (auto _ : state) {
    benchmark::DoNotOptimize(vocab.EncodeText(text));
  }
}
BENCHMARK(BM_VocabEncode);

void BM_TransformerPredict(benchmark::State& state) {
  TransformerConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = static_cast<size_t>(state.range(0));
  TransformerClassifier model(config);
  Rng rng(4);
  std::vector<int32_t> tokens(config.max_seq_len);
  for (auto& t : tokens) t = static_cast<int32_t>(rng.Uniform(6000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(tokens));
  }
}
BENCHMARK(BM_TransformerPredict)->Arg(48)->Arg(96);

// Batched matcher inference: every iteration scores the same 256 fixture
// pairs through TransformerMatcher::ScoreBatch in chunks of `batch`, so the
// per-iteration work is constant and the batch:32 / batch:256 rows against
// batch:1 *of the same artifact* are the amortization win of the packed
// forward pass (one activation workspace and weight-matrix sweep per chunk
// instead of per pair). Scores are bitwise-identical across rows by the
// ScoreBatch contract — this knob trades nothing but allocator traffic.
// Scores 256 fixed pairs through TransformerMatcher::ScoreBatch in chunks of
// `batch`, so batch:1 is the per-pair baseline and batch:256 one packed
// forward pass. The model is sized so the layer weights (~2.5 MB) exceed a
// typical L2 cache with short sequences: that is the regime real transformer
// inference lives in — per-pair scoring re-streams every weight matrix from
// shared cache for each pair, while a packed batch streams them once per
// layer. At the tiny default config (d_model 32, weights ~260 KB) everything
// stays cache-hot and the batch rows collapse to within noise of each other,
// which would benchmark the allocator, not the batching.
void BM_MatcherScoreBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  static const RecordTable* records = [] {
    auto* table = new RecordTable();
    for (const Record& rec : IncrementalBenchRecords()) table->Add(rec);
    return table;
  }();
  static const TransformerMatcher* matcher = [] {
    TransformerMatcherConfig config;
    config.d_model = 128;
    config.num_heads = 4;
    config.num_layers = 2;
    config.d_ff = 1024;
    config.max_seq_len = 6;
    auto* m = new TransformerMatcher(config);
    m->BuildVocab(*records);
    return m;
  }();
  constexpr size_t kPairs = 256;
  std::vector<RecordPair> pairs;
  pairs.reserve(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    const RecordId a = static_cast<RecordId>((2 * i) % records->size());
    const RecordId b = static_cast<RecordId>((2 * i + 1) % records->size());
    pairs.push_back(RecordPair(a, b));
  }
  std::vector<double> scores(kPairs, 0.0);
  for (auto _ : state) {
    for (size_t begin = 0; begin < kPairs; begin += batch) {
      const size_t count = std::min(batch, kPairs - begin);
      matcher->ScoreBatch(*records,
                          Span<const RecordPair>(pairs.data() + begin, count),
                          Span<double>(scores.data() + begin, count));
    }
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}
BENCHMARK(BM_MatcherScoreBatch)->Arg(1)->Arg(32)->Arg(256)->ArgName("batch")
    ->Unit(benchmark::kMillisecond);

void BM_TransformerTrainStep(benchmark::State& state) {
  TransformerConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 48;
  TransformerClassifier model(config);
  Rng rng(5);
  std::vector<int32_t> tokens(config.max_seq_len);
  for (auto& t : tokens) t = static_cast<int32_t>(rng.Uniform(6000));
  int label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ForwardBackward(tokens, label));
    label ^= 1;
  }
}
BENCHMARK(BM_TransformerTrainStep);

}  // namespace
}  // namespace gralmatch

BENCHMARK_MAIN();
