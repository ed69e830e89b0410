#include "obs/metrics.h"

#include <bit>
#include <cstdio>

namespace bigcity::obs {

namespace internal {

int ThisThreadShard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

}  // namespace internal

static_assert((kMetricShards & (kMetricShards - 1)) == 0,
              "shard count must be a power of two");

// --- Counter ----------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// --- Gauge ------------------------------------------------------------------

void Gauge::Set(double value) {
  bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      observed,
      std::bit_cast<uint64_t>(std::bit_cast<double>(observed) + delta),
      std::memory_order_relaxed)) {
  }
}

double Gauge::Value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(kMetricShards) {
  for (auto& shard : shards_) {
    shard.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Record(double value) {
  // Branchless-enough linear scan: duration histograms have ~20 buckets and
  // most samples land in the first few, so this beats a binary search.
  size_t bucket = 0;
  while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
  Shard& shard = shards_[static_cast<size_t>(internal::ThisThreadShard())];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  // Two threads can share a shard, so the double sum needs a CAS loop; it
  // is uncontended in the common case.
  uint64_t observed = shard.sum_bits.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t updated =
        std::bit_cast<uint64_t>(std::bit_cast<double>(observed) + value);
    if (shard.sum_bits.compare_exchange_weak(observed, updated,
                                             std::memory_order_relaxed)) {
      break;
    }
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0;
  for (const auto& shard : shards_) {
    total +=
        std::bit_cast<double>(shard.sum_bits.load(std::memory_order_relaxed));
  }
  return total;
}

double Histogram::Mean() const {
  const uint64_t count = Count();
  return count == 0 ? 0.0 : Sum() / static_cast<double>(count);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t b = 0; b < merged.size(); ++b) {
      merged[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum_bits.store(0, std::memory_order_relaxed);
  }
}

double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets, double q) {
  if (bounds.empty() || buckets.empty()) return 0.0;
  uint64_t total = 0;
  for (const uint64_t count : buckets) total += count;
  if (total == 0) return 0.0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const uint64_t in_bucket = buckets[b];
    if (in_bucket > 0 &&
        static_cast<double>(cumulative + in_bucket) >= rank) {
      if (b >= bounds.size()) return bounds.back();  // Overflow bucket.
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = bounds[b];
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    b.push_back(1e7);  // 10 s.
    return b;
  }();
  return bounds;
}

// --- Registry ---------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.buckets = histogram->BucketCounts();
    data.count = histogram->Count();
    data.sum = histogram->Sum();
    snapshot.histograms[name] = std::move(data);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

// --- Snapshot JSON ----------------------------------------------------------

namespace {

void AppendEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out->append(buffer);
    } else {
      out->push_back(c);
    }
  }
}

void AppendNumber(double value, std::string* out) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(name, &out);
    out.append("\":");
    out.append(std::to_string(value));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(name, &out);
    out.append("\":");
    AppendNumber(value, &out);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, data] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendEscaped(name, &out);
    out.append("\":{\"count\":");
    out.append(std::to_string(data.count));
    out.append(",\"sum\":");
    AppendNumber(data.sum, &out);
    out.append(",\"p50\":");
    AppendNumber(data.Percentile(0.50), &out);
    out.append(",\"p95\":");
    AppendNumber(data.Percentile(0.95), &out);
    out.append(",\"p99\":");
    AppendNumber(data.Percentile(0.99), &out);
    out.append(",\"bounds\":[");
    for (size_t b = 0; b < data.bounds.size(); ++b) {
      if (b > 0) out.push_back(',');
      AppendNumber(data.bounds[b], &out);
    }
    out.append("],\"buckets\":[");
    for (size_t b = 0; b < data.buckets.size(); ++b) {
      if (b > 0) out.push_back(',');
      out.append(std::to_string(data.buckets[b]));
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

}  // namespace bigcity::obs
