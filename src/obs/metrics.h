#ifndef BIGCITY_OBS_METRICS_H_
#define BIGCITY_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bigcity::obs {

/// Shards per metric. Updates hash to a shard by a process-wide per-thread
/// index, so concurrent writers almost always touch distinct cache lines;
/// reads merge all shards. Power of two so the modulo is a mask.
inline constexpr int kMetricShards = 16;

namespace internal {

/// Stable shard index for the calling thread, in [0, kMetricShards).
int ThisThreadShard();

struct alignas(64) CounterShard {
  std::atomic<uint64_t> value{0};
};

}  // namespace internal

/// Monotonically increasing event count. Add() is lock-free (one relaxed
/// fetch_add on a per-thread-sharded cache line); Value() merges shards.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const;
  void Reset();

 private:
  internal::CounterShard shards_[kMetricShards];
};

/// Last-write-wins double value (e.g. current LR, queue depth).
class Gauge {
 public:
  void Set(double value);
  /// Atomically adds `delta`: a count of live objects kept by +1 / -1 from
  /// any thread, with no second copy of the total.
  void Add(double delta);
  double Value() const;
  void Reset() { Set(0.0); }

 private:
  std::atomic<uint64_t> bits_{0};  // Bit pattern of the double.
};

/// Fixed-bucket histogram. Bucket i counts values <= bounds[i]; one extra
/// overflow bucket counts the rest. Record() is lock-free on the bucket and
/// count (relaxed fetch_add) with a CAS loop only for the double sum.
class Histogram {
 public:
  /// Strictly increasing upper bounds. Empty bounds = a single overflow
  /// bucket (count/sum only).
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  uint64_t Count() const;
  double Sum() const;
  double Mean() const;
  /// Merged per-bucket counts, size bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  const std::vector<double>& bounds() const { return bounds_; }
  void Reset();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_bits{0};  // Bit pattern of the double sum.
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// Exponential microsecond-latency bounds (1us .. 10s), the default for
/// duration histograms.
const std::vector<double>& LatencyBoundsUs();

/// Estimated quantile `q` in [0, 1] from merged bucket counts: cumulative
/// walk with linear interpolation inside the containing bucket. Samples in
/// the overflow bucket clamp to the last finite bound; an empty histogram
/// (or one with no bounds) returns 0.
double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets, double q);

/// Point-in-time merged view of every registered metric.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0;

    double Percentile(double q) const {
      return HistogramPercentile(bounds, buckets, q);
    }
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

/// Process-wide name -> metric registry. Get* registers on first use and
/// returns a stable pointer: callers cache it (the instrumentation macros
/// do so in a function-local static) and hit only the metric's lock-free
/// fast path afterwards. Reset() zeroes values but never invalidates
/// handles.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only on first registration; later calls with the
  /// same name return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = LatencyBoundsUs());

  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace bigcity::obs

#endif  // BIGCITY_OBS_METRICS_H_
