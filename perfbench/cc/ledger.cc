#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/memory.h"
#include "obs/profiler.h"
#include "util/check.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Ledger::Add(const std::string& name, double value,
                 const std::string& unit) {
  BIGCITY_CHECK(std::isfinite(value)) << "metric " << name << " is " << value;
  for (const Metric& metric : metrics_) {
    BIGCITY_CHECK(metric.name != name) << "metric " << name << " twice";
  }
  metrics_.push_back({name, value, unit});
}

std::string Ledger::Json() const {
  std::string json = "{";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(number, sizeof number, "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  return json + "}";
}

void Ledger::Print(std::FILE* out) const {
  for (const Metric& metric : metrics_) {
    std::fprintf(out, "  %-40s %14.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
}

void ObsWindow::Open() {
  auto& memory = bigcity::obs::MemoryTracker::Global();
  alloc_bytes_ = -memory.alloc_bytes();
  alloc_count_ = -memory.alloc_count();
  before_ = bigcity::obs::MetricsRegistry::Global().Snapshot();
}

void ObsWindow::Close() {
  after_ = bigcity::obs::MetricsRegistry::Global().Snapshot();
  auto& memory = bigcity::obs::MemoryTracker::Global();
  alloc_bytes_ += memory.alloc_bytes();
  alloc_count_ += memory.alloc_count();
}

uint64_t ObsWindow::Counter(const std::string& name) const {
  auto read = [&](const bigcity::obs::MetricsSnapshot& snapshot) -> uint64_t {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  return read(after_) - read(before_);
}

namespace {

/// Bucket counts a histogram gained inside the window (empty if unknown).
bigcity::obs::MetricsSnapshot::HistogramData HistogramDelta(
    const bigcity::obs::MetricsSnapshot& before,
    const bigcity::obs::MetricsSnapshot& after, const std::string& name) {
  bigcity::obs::MetricsSnapshot::HistogramData delta;
  auto now = after.histograms.find(name);
  if (now == after.histograms.end()) return delta;
  delta = now->second;
  auto then = before.histograms.find(name);
  if (then == before.histograms.end()) return delta;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= then->second.buckets[i];
  }
  delta.count -= then->second.count;
  delta.sum -= then->second.sum;
  return delta;
}

bool UnderPath(const std::string& path, const std::string& prefix) {
  return path == prefix ||
         (path.size() > prefix.size() && path.compare(0, prefix.size(),
                                                      prefix) == 0 &&
          path[prefix.size()] == '.');
}

/// Component of `backbone.transformer.block<N>.<component>...`, or "".
std::string BlockComponent(const std::string& path) {
  static const std::string kBlocks = "backbone.transformer.block";
  if (path.compare(0, kBlocks.size(), kBlocks) != 0) return "";
  const size_t dot = path.find('.', kBlocks.size());
  if (dot == std::string::npos) return "";
  const size_t end = path.find('.', dot + 1);
  return path.substr(dot + 1, end == std::string::npos ? end : end - dot - 1);
}

}  // namespace

double ObsWindow::HistogramQuantile(const std::string& name, double q) const {
  return HistogramDelta(before_, after_, name).Percentile(q);
}

StealMeter::StealMeter() : thread_([this] {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    Record();
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(100),
                 [this] { return stop_; });
  }
}) {}

StealMeter::~StealMeter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void StealMeter::Record() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return;
  std::istringstream fields(line.substr(4));
  Sample sample;
  sample.at = Clock::now();
  uint64_t value = 0;
  for (int column = 0; fields >> value; ++column) {
    if (column < 8) sample.total += value;  // user .. steal; guest is in user.
    if (column == 7) sample.steal = value;
  }
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(sample);
}

double StealMeter::Share(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0;
  // The last sample at or before `from` and the first at or after `to`.
  auto after_from = std::upper_bound(
      samples_.begin(), samples_.end(), from,
      [](Clock::time_point t, const Sample& s) { return t < s.at; });
  const Sample& first = after_from == samples_.begin() ? samples_.front()
                                                       : *(after_from - 1);
  auto at_to = std::lower_bound(
      samples_.begin(), samples_.end(), to,
      [](const Sample& s, Clock::time_point t) { return s.at < t; });
  const Sample& last = at_to == samples_.end() ? samples_.back() : *at_to;
  if (last.total <= first.total) return 0;
  return static_cast<double>(last.steal - first.steal) /
         static_cast<double>(last.total - first.total);
}

std::vector<size_t> QuietIntervals(const std::vector<double>& steal_shares) {
  const double median = Median(steal_shares);
  std::vector<size_t> quiet;
  for (size_t i = 0; i < steal_shares.size(); ++i) {
    if (steal_shares[i] <= median) quiet.push_back(i);
  }
  return quiet;
}

ProfileShares ReadProfileShares() {
  ProfileShares shares;
  const auto& profiler = bigcity::obs::Profiler::Global();
  const double total = static_cast<double>(profiler.TotalSelfUs());
  shares.total_self_s = total / 1e6;
  if (total <= 0) return shares;
  for (const auto& row : profiler.Rows()) {
    const double share = static_cast<double>(row.self_us) / total;
    if (UnderPath(row.module, "tokenizer")) shares.tokenizer += share;
    if (UnderPath(row.module, "tokenizer.fusion")) {
      shares.tokenizer_fusion += share;
    }
    if (UnderPath(row.module, "tokenizer.dynamic_encoder")) {
      shares.tokenizer_dynamic_encoder += share;
    }
    const std::string component = BlockComponent(row.module);
    if (component == "attn") shares.backbone_attn += share;
    if (component == "ffn_up" || component == "ffn_down") {
      shares.backbone_ffn += share;
    }
    if (UnderPath(row.module, "heads")) shares.heads += share;
    if (row.op == "MatMul" || row.op == "MatMulNT" || row.op == "Affine" ||
        row.op == "AffineResidual") {
      shares.gemm += share;
    }
  }
  return shares;
}

}  // namespace perfbench
