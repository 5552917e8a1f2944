#include "serve/checkpoint.h"
#include "workloads.h"

namespace e2ebench {

bool IngestSnapshotPublish(const Context& ctx,
                           gralmatch::IncrementalPipeline* pipeline,
                           gralmatch::MatchService* service,
                           const std::vector<gralmatch::Record>& batch,
                           const gralmatch::PairwiseMatcher& matcher,
                           RunResult* out) {
  {
    Span span(ctx.tracer, "stream.ingest");
    ++out->attempted;
    auto report = pipeline->Ingest(batch, matcher);
    if (!report.ok()) {
      ++out->failed;
      out->Fail("Ingest: " + report.status().ToString());
      return false;
    }
    out->layers.Add(*report);
  }
  return SnapshotPublish(ctx, *pipeline, service, out);
}

bool SnapshotPublish(const Context& ctx,
                     const gralmatch::IncrementalPipeline& pipeline,
                     gralmatch::MatchService* service, RunResult* out) {
  gralmatch::Result<gralmatch::PipelineResult> snapshot =
      gralmatch::Status::Internal("not taken");
  {
    Span span(ctx.tracer, "stream.snapshot");
    ++out->attempted;
    snapshot = pipeline.Snapshot();
  }
  if (!snapshot.ok()) {
    ++out->failed;
    out->Fail("Snapshot: " + snapshot.status().ToString());
    return false;
  }
  Span span(ctx.tracer, "serve.publish");
  ++out->attempted;
  service->Publish(*snapshot, pipeline.records().size());
  return true;
}

gralmatch::Result<std::string> SaveImage(
    const Context& ctx, const gralmatch::IncrementalPipeline& pipeline,
    RunResult* out) {
  Span span(ctx.tracer, "serve.checkpoint_serialize");
  ++out->attempted;
  auto image = gralmatch::SerializeCheckpoint(pipeline);
  if (!image.ok()) {
    ++out->failed;
    out->Fail("SerializeCheckpoint: " + image.status().ToString());
  }
  return image;
}

gralmatch::Result<std::unique_ptr<gralmatch::IncrementalPipeline>> LoadImage(
    const Context& ctx, const std::string& image,
    const gralmatch::PairwiseMatcher& matcher, RunResult* out) {
  Span span(ctx.tracer, "serve.checkpoint_parse");
  ++out->attempted;
  auto loaded = gralmatch::ParseCheckpoint(image, matcher);
  if (!loaded.ok()) ++out->failed;
  return loaded;
}

}  // namespace e2ebench
