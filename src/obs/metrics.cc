#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace gralmatch {
namespace obs {
namespace {

/// Shortest round-trippable-ish deterministic double rendering; enough
/// precision that distinct sums/quantiles render distinctly.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

size_t BucketIndex(double seconds) {
  const auto it = std::lower_bound(kLatencyBucketBounds.begin(),
                                   kLatencyBucketBounds.end(), seconds);
  return static_cast<size_t>(it - kLatencyBucketBounds.begin());
}

}  // namespace

void Histogram::Observe(double seconds) {
  if (!(seconds > 0.0)) seconds = 0.0;  // clamp negatives and NaN
  buckets_[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // C++17 lacks std::atomic<double>::fetch_add: carry the sum as a bit
  // pattern and CAS the addition in.
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  while (true) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    const double next = current + seconds;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (sum_bits_.compare_exchange_weak(observed, next_bits,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

double Histogram::SumSeconds() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double sum;
  std::memcpy(&sum, &bits, sizeof(sum));
  return sum;
}

double Histogram::Quantile(double q) const {
  const std::array<uint64_t, kNumLatencyBuckets> counts = BucketCounts();
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      return i < kLatencyBucketBounds.size() ? kLatencyBucketBounds[i]
                                             : kLatencyBucketBounds.back();
    }
  }
  return kLatencyBucketBounds.back();
}

std::array<uint64_t, kNumLatencyBuckets> Histogram::BucketCounts() const {
  std::array<uint64_t, kNumLatencyBuckets> counts{};
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

template <typename T>
T* MetricsRegistry::GetOrCreate(std::vector<Named<T>>* instruments,
                                const std::string& name) {
  const auto it = std::lower_bound(
      instruments->begin(), instruments->end(), name,
      [](const Named<T>& entry, const std::string& key) {
        return entry.name < key;
      });
  if (it != instruments->end() && it->name == name) {
    return it->instrument.get();
  }
  const auto inserted =
      instruments->insert(it, Named<T>{name, std::make_unique<T>()});
  return inserted->instrument.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  return GetOrCreate(&counters_, name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  return GetOrCreate(&gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  return GetOrCreate(&histograms_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(&mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& entry : counters_) {
    snapshot.counters.push_back({entry.name, entry.instrument->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_) {
    snapshot.gauges.push_back({entry.name, entry.instrument->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    HistogramSample sample;
    sample.name = entry.name;
    sample.count = entry.instrument->TotalCount();
    sample.sum_seconds = entry.instrument->SumSeconds();
    sample.p50 = entry.instrument->Quantile(0.50);
    sample.p95 = entry.instrument->Quantile(0.95);
    sample.p99 = entry.instrument->Quantile(0.99);
    sample.bucket_counts = entry.instrument->BucketCounts();
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

MetricsRegistry* MetricsRegistry::Default() {
  // Leaked on purpose: instrument pointers handed out by the default
  // registry must outlive every thread that might still increment them.
  static MetricsRegistry* const instance = new MetricsRegistry();
  return instance;
}

double SampleQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const uint64_t rank = std::min<uint64_t>(
      samples.size(),
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(
                                q * static_cast<double>(samples.size())))));
  return samples[rank - 1];
}

std::string DumpMetricsText(const MetricsRegistry& registry) {
  const MetricsSnapshot snapshot = registry.Snapshot();
  std::string out;
  for (const CounterSample& counter : snapshot.counters) {
    out += "# TYPE " + counter.name + " counter\n";
    out += counter.name + " " + std::to_string(counter.value) + "\n";
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    out += "# TYPE " + gauge.name + " gauge\n";
    out += gauge.name + " " + std::to_string(gauge.value) + "\n";
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    out += "# TYPE " + histogram.name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kLatencyBucketBounds.size(); ++i) {
      cumulative += histogram.bucket_counts[i];
      out += histogram.name + "_bucket{le=\"" +
             FormatDouble(kLatencyBucketBounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += histogram.bucket_counts[kNumLatencyBuckets - 1];
    out += histogram.name + "_bucket{le=\"+Inf\"} " +
           std::to_string(cumulative) + "\n";
    out += histogram.name + "_sum " + FormatDouble(histogram.sum_seconds) +
           "\n";
    out += histogram.name + "_count " + std::to_string(histogram.count) +
           "\n";
    out += histogram.name + "{quantile=\"0.5\"} " +
           FormatDouble(histogram.p50) + "\n";
    out += histogram.name + "{quantile=\"0.95\"} " +
           FormatDouble(histogram.p95) + "\n";
    out += histogram.name + "{quantile=\"0.99\"} " +
           FormatDouble(histogram.p99) + "\n";
  }
  return out;
}

std::string DumpMetricsJson(const MetricsRegistry& registry) {
  const MetricsSnapshot snapshot = registry.Snapshot();
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + snapshot.counters[i].name +
           "\":" + std::to_string(snapshot.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + snapshot.gauges[i].name +
           "\":" + std::to_string(snapshot.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& histogram = snapshot.histograms[i];
    if (i > 0) out += ",";
    out += "\"" + histogram.name + "\":{";
    out += "\"count\":" + std::to_string(histogram.count);
    out += ",\"sum_seconds\":" + FormatDouble(histogram.sum_seconds);
    out += ",\"p50\":" + FormatDouble(histogram.p50);
    out += ",\"p95\":" + FormatDouble(histogram.p95);
    out += ",\"p99\":" + FormatDouble(histogram.p99);
    out += ",\"buckets\":[";
    for (size_t b = 0; b < histogram.bucket_counts.size(); ++b) {
      if (b > 0) out += ",";
      out += std::to_string(histogram.bucket_counts[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

PipelineMetrics PipelineMetrics::Create(MetricsRegistry* registry) {
  PipelineMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.blocking_seconds =
      registry->GetHistogram("pipeline_blocking_seconds");
  metrics.scoring_seconds = registry->GetHistogram("pipeline_scoring_seconds");
  metrics.cleanup_seconds = registry->GetHistogram("pipeline_cleanup_seconds");
  metrics.mutations = registry->GetCounter("pipeline_mutations_total");
  metrics.records_added = registry->GetCounter("pipeline_records_added_total");
  metrics.records_removed =
      registry->GetCounter("pipeline_records_removed_total");
  metrics.pairs_scored = registry->GetCounter("pipeline_pairs_scored_total");
  metrics.cache_hits = registry->GetCounter("pipeline_cache_hits_total");
  metrics.cache_evictions =
      registry->GetCounter("pipeline_cache_evictions_total");
  metrics.components_rebuilt =
      registry->GetCounter("pipeline_components_rebuilt_total");
  metrics.components_reused =
      registry->GetCounter("pipeline_components_reused_total");
  metrics.cascade_gate_resolved =
      registry->GetCounter("cascade_gate_resolved_total");
  metrics.cascade_escalated = registry->GetCounter("cascade_escalated_total");
  return metrics;
}

ServeMetrics ServeMetrics::Create(MetricsRegistry* registry) {
  ServeMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.publish_seconds = registry->GetHistogram("serve_publish_seconds");
  metrics.epochs_published =
      registry->GetCounter("serve_epochs_published_total");
  metrics.current_epoch = registry->GetGauge("serve_current_epoch");
  metrics.serving_records = registry->GetGauge("serve_snapshot_records");
  return metrics;
}

NetMetrics NetMetrics::Create(MetricsRegistry* registry) {
  NetMetrics metrics;
  if (registry == nullptr) return metrics;
  metrics.rpc_decode_seconds =
      registry->GetHistogram("net_rpc_decode_seconds");
  metrics.rpc_dispatch_seconds =
      registry->GetHistogram("net_rpc_dispatch_seconds");
  metrics.rpc_encode_seconds =
      registry->GetHistogram("net_rpc_encode_seconds");
  metrics.requests_served = registry->GetCounter("net_requests_served_total");
  metrics.shed_connection_cap =
      registry->GetCounter("net_shed_connection_cap_total");
  metrics.shed_overload = registry->GetCounter("net_shed_overload_total");
  metrics.shed_frame_size = registry->GetCounter("net_shed_frame_size_total");
  metrics.shed_framing_fatal =
      registry->GetCounter("net_shed_framing_fatal_total");
  return metrics;
}

}  // namespace obs
}  // namespace gralmatch
