// The benchmark's result ledger: named metrics with units, plus the
// outside-in readers that fill it from what the program already emits
// (obs counters and histograms, tensor-memory totals, the op profiler).
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Seconds since `start` on the steady clock.
double SecondsSince(std::chrono::steady_clock::time_point start);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Ledger {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string Json() const;
  void Print(std::FILE* out) const;

 private:
  std::vector<Metric> metrics_;
};

/// Deltas of the process-wide obs metrics and tensor-memory totals over
/// one phase: Open() before it, Close() after it.
class ObsWindow {
 public:
  void Open();
  void Close();

  uint64_t Counter(const std::string& name) const;
  /// Quantile of the samples a histogram recorded inside the window.
  double HistogramQuantile(const std::string& name, double q) const;
  int64_t alloc_bytes() const { return alloc_bytes_; }
  int64_t alloc_count() const { return alloc_count_; }

 private:
  bigcity::obs::MetricsSnapshot before_, after_;
  int64_t alloc_bytes_ = 0, alloc_count_ = 0;
};

/// Samples the guest's stolen CPU time (the steal column of /proc/stat)
/// every 100 ms on a sleeping thread. The hypervisor gave that time to
/// other guests, so an interval with more of it measures the host rather
/// than the program.
class StealMeter {
 public:
  using Clock = std::chrono::steady_clock;

  StealMeter();
  ~StealMeter();
  StealMeter(const StealMeter&) = delete;
  StealMeter& operator=(const StealMeter&) = delete;

  /// Share of the guest's CPU time stolen in [from, to]; 0 when unknown.
  double Share(Clock::time_point from, Clock::time_point to) const;

 private:
  struct Sample {
    Clock::time_point at;
    uint64_t steal = 0;
    uint64_t total = 0;
  };
  void Record();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // Last: starts after the members it uses exist.
};

/// Indices of the intervals whose steal share is at most the median share:
/// the quieter half (all of them when the host stole nothing).
std::vector<size_t> QuietIntervals(const std::vector<double>& steal_shares);

/// Shares of profiled op self time, read from the op profiler's rows.
struct ProfileShares {
  double total_self_s = 0;
  double tokenizer = 0;
  double tokenizer_fusion = 0;
  double tokenizer_dynamic_encoder = 0;
  double backbone_attn = 0;
  double backbone_ffn = 0;
  double heads = 0;
  double gemm = 0;  // MatMul, MatMulNT, Affine, AffineResidual.
};
ProfileShares ReadProfileShares();

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
