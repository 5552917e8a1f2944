// End-to-end benchmark driver for gralmatch.
//
//   gralmatch_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR]
//
// Runs one workload through the program's public API and prints, as the
// last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing and no metrics registry wired. With --trace 1 the driver runs
// the workload twice, for half the time each: untraced, then traced (spans
// around every call into a layer, plus the obs registry wired through
// PipelineConfig::metrics, MatchService and NetServerOptions::metrics). The
// metrics are then the per-layer ones; the lines before the JSON add each
// layer's self time and the tracing overhead (traced minus untraced).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

#include "harness.h"
#include "obs/metrics.h"
#include "trace.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: gralmatch_e2e --workload "
               "securities_stream|companies_transformer --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 3600) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

using WorkloadFn = void (*)(const Context&, RunResult*);

WorkloadFn Find(const std::string& name) {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"securities_stream", RunSecuritiesStream},
      {"companies_transformer", RunCompaniesTransformer},
  };
  auto it = kWorkloads.find(name);
  return it == kWorkloads.end() ? nullptr : it->second;
}

/// Metrics of the JSON line, in declaration order.
class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      bad_.push_back(name);
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
    std::printf("metric %s %s %s\n", name.c_str(), buf, unit.c_str());
  }
  const std::vector<std::string>& bad() const { return bad_; }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
  std::vector<std::string> bad_;
};

void PrintFigures(const char* pass, const RunResult& result) {
  for (const Figure& f : result.figures) {
    std::printf("figure %s %s %.6g %s\n", pass, f.name.c_str(), f.value,
                f.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("note %s %s\n", pass, note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("error %s %s\n", pass, error.c_str());
  }
  std::printf("ops %s attempted=%llu failed=%llu\n", pass,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
}

double HistSum(gralmatch::obs::MetricsRegistry* registry, const char* name) {
  return registry->GetHistogram(name)->SumSeconds();
}

/// Per-layer metrics of the traced pass.
void AddLayerMetrics(const RunResult& traced,
                     const std::vector<Tracer::LayerTime>& spans,
                     gralmatch::obs::MetricsRegistry* registry,
                     double overhead_share, JsonMetrics* json) {
  const LayerCounts& c = traced.layers;
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  const auto span_s = [&spans](const char* name) {
    for (const Tracer::LayerTime& layer : spans) {
      if (layer.name == name) return layer.total_s;
    }
    return 0.0;
  };
  uint64_t num_spans = 0;
  for (const Tracer::LayerTime& layer : spans) num_spans += layer.count;
  const double ingest_s = span_s("stream.ingest");
  const double mutate_s = span_s("stream.mutate");
  const double blocking_s = HistSum(registry, "pipeline_blocking_seconds");
  const double score_s = HistSum(registry, "pipeline_scoring_seconds");
  json->Add("datagen.generate_s", span_s("datagen.generate"), "s");
  json->Add("stream.ingest_s", ingest_s, "s");
  json->Add("stream.mutate_s", mutate_s, "s");
  json->Add("stream.snapshot_s", span_s("stream.snapshot"), "s");
  json->Add("stream.cache_hits", count(c.cache_hits), "count");
  json->Add("stream.cache_evictions", count(c.cache_evictions), "count");
  json->Add("stream.components_rebuilt", count(c.components_rebuilt), "count");
  json->Add("stream.components_reused", count(c.components_reused), "count");
  json->Add("blocking.s", blocking_s, "s");
  json->Add("blocking.share_of_ingest",
            ingest_s + mutate_s > 0 ? blocking_s / (ingest_s + mutate_s) : 0.0,
            "ratio");
  json->Add("blocking.candidates_added", count(c.candidates_added), "count");
  json->Add("blocking.candidates_removed", count(c.candidates_removed),
            "count");
  json->Add("matching.score_s", score_s, "s");
  json->Add("matching.pairs_scored", count(c.pairs_scored), "count");
  json->Add("matching.pairs_per_s",
            score_s > 0 ? count(c.pairs_scored) / score_s : 0.0, "1/s");
  json->Add("matching.train_s", span_s("matching.train"), "s");
  json->Add("core.cleanup_s", HistSum(registry, "pipeline_cleanup_seconds"),
            "s");
  json->Add("core.min_cut_calls", count(c.min_cut_calls), "count");
  json->Add("core.betweenness_calls", count(c.betweenness_calls), "count");
  json->Add("core.edges_removed", count(c.edges_removed), "count");
  json->Add("core.largest_component", count(c.largest_component), "count");
  json->Add("serve.publish_s", span_s("serve.publish"), "s");
  json->Add("serve.checkpoint_serialize_s",
            span_s("serve.checkpoint_serialize"), "s");
  json->Add("serve.checkpoint_parse_s",
            span_s("serve.checkpoint_parse"), "s");
  json->Add("serve.checkpoint_file_load_s",
            span_s("serve.checkpoint_file_load"), "s");
  json->Add("net.decode_s", HistSum(registry, "net_rpc_decode_seconds"), "s");
  json->Add("net.dispatch_s", HistSum(registry, "net_rpc_dispatch_seconds"),
            "s");
  json->Add("net.encode_s", HistSum(registry, "net_rpc_encode_seconds"), "s");
  json->Add("net.requests_served",
            count(registry->GetCounter("net_requests_served_total")->Value()),
            "count");
  json->Add("trace.spans", count(num_spans), "count");
  json->Add("trace.overhead_share", overhead_share, "ratio");
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const WorkloadFn run = Find(args.workload);
  if (run == nullptr) Usage("unknown workload " + args.workload);

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path scratch =
      fs::path(args.scratch) / ("e2e-" + std::to_string(getpid()));
  fs::create_directories(scratch, ec);
  if (ec) Usage("cannot create " + scratch.string() + ": " + ec.message());

  Context ctx;
  ctx.seed = args.seed;
  ctx.scratch_dir = scratch.string();
  JsonMetrics json;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  if (!args.trace) {
    ctx.seconds = args.seconds;
    RunResult result;
    run(ctx, &result);
    PrintFigures("untraced", result);
    correct = result.errors.empty();
    attempted = result.attempted;
    failed = result.failed;
    json.Add("setup_s", result.setup_s, "s");
    json.Add("throughput_per_s", result.throughput_per_s, "1/s");
    json.Add("latency_p50_ms", result.latency_p50_ms, "ms");
    json.Add("group_f1", result.group_f1, "ratio");
    json.Add("peak_rss_mb", result.peak_rss_mb, "MB");
  } else {
    ctx.seconds = args.seconds / 2.0;
    ctx.setup_reps = 1;
    RunResult untraced;
    run(ctx, &untraced);
    PrintFigures("untraced", untraced);

    gralmatch::obs::MetricsRegistry registry;
    Tracer tracer;
    ctx.metrics = &registry;
    ctx.tracer = &tracer;
    RunResult traced;
    run(ctx, &traced);
    PrintFigures("traced", traced);

    const std::vector<Tracer::LayerTime> spans = tracer.Summarize();
    for (const Tracer::LayerTime& layer : spans) {
      std::printf("span %-28s count=%-8llu total_s=%.6f self_s=%.6f\n",
                  layer.name.c_str(),
                  static_cast<unsigned long long>(layer.count), layer.total_s,
                  layer.self_s);
    }
    const auto overhead = [](const char* name, double untraced_value,
                             double traced_value) {
      std::printf("overhead %s untraced=%.6g traced=%.6g delta=%.6g\n", name,
                  untraced_value, traced_value, traced_value - untraced_value);
    };
    overhead("setup_s", untraced.setup_s, traced.setup_s);
    overhead("throughput_per_s", untraced.throughput_per_s,
             traced.throughput_per_s);
    overhead("latency_p50_ms", untraced.latency_p50_ms, traced.latency_p50_ms);
    correct = untraced.errors.empty() && traced.errors.empty();
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    AddLayerMetrics(traced, spans, &registry,
                    (untraced.throughput_per_s - traced.throughput_per_s) /
                        untraced.throughput_per_s,
                    &json);
  }
  for (const std::string& name : json.bad()) {
    std::printf("error metric %s is not a finite number\n", name.c_str());
    correct = false;
  }
  fs::remove_all(scratch, ec);
  if (attempted == 0) {  // the run broke off before its first operation
    attempted = 1;
    failed = 1;
    correct = false;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
