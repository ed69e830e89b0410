// Model-introspection tests (DESIGN.md §4.10): the autograd op profiler,
// tensor memory accounting, non-finite localization, and the new
// histogram-percentile / raw-record plumbing they report through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nn/introspect.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace bigcity {
namespace {

using nn::Tensor;

#if BIGCITY_OBS

/// Arms the profiler for one test and cleans up after, so profiling state
/// never leaks into the other tests in this binary.
class ScopedProfile {
 public:
  ScopedProfile() {
    obs::Profiler::Global().Reset();
    obs::SetProfilerEnabled(true);
  }
  ~ScopedProfile() {
    obs::SetProfilerEnabled(false);
    obs::Profiler::Global().Reset();
  }
};

const obs::OpStats* FindRow(const std::vector<obs::OpStats>& rows,
                            const std::string& op, bool backward) {
  for (const auto& row : rows) {
    if (row.op == op && row.backward == backward) return &row;
  }
  return nullptr;
}

TEST(ProfilerTest, RecordsForwardAndBackwardOpsWithFlops) {
  ScopedProfile profile;
  util::Rng rng(3);
  Tensor a = Tensor::Randn({8, 16}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({16, 8}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor loss = nn::Sum(nn::MatMul(a, b));
  loss.Backward();

  const auto rows = obs::Profiler::Global().Rows();
  const auto* fwd = FindRow(rows, "MatMul", /*backward=*/false);
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->calls, 1u);
  // 2*N*K*M multiply-adds.
  EXPECT_EQ(fwd->flops, 2u * 8 * 16 * 8);
  EXPECT_LE(fwd->self_us, fwd->total_us);

  const auto* bwd = FindRow(rows, "MatMul", /*backward=*/true);
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(bwd->calls, 1u);
  // Backward computes dA and dB: twice the forward work.
  EXPECT_EQ(bwd->flops, 4u * 8 * 16 * 8);

  EXPECT_NE(FindRow(rows, "Sum", /*backward=*/false), nullptr);
  EXPECT_GT(obs::Profiler::Global().TotalSelfUs(), 0u);
}

TEST(ProfilerTest, ModuleScopesAttributeOpsAndRollUpByPrefix) {
  ScopedProfile profile;
  util::Rng rng(3);
  nn::Mlp mlp({4, 8, 2}, &rng);
  mlp.AssignModulePaths("encoder.mlp");
  Tensor x = Tensor::Randn({3, 4}, &rng, 1.0f, /*requires_grad=*/false);
  Tensor y = mlp.Forward(x);
  ASSERT_EQ(y.shape()[1], 2);

  bool saw_fc0 = false;
  for (const auto& row : obs::Profiler::Global().Rows()) {
    if (row.module == "encoder.mlp.fc0") saw_fc0 = true;
  }
  EXPECT_TRUE(saw_fc0) << "ops inside Linear::Forward must attribute to "
                          "the layer's assigned dotted path";

  // The rollup is inclusive over dotted prefixes: the parent paths carry
  // the children's time, and the total matches the op-level self sum.
  uint64_t encoder_total = 0, fc0_total = 0, all_roots = 0;
  const auto rollup = obs::Profiler::Global().ModuleRollup();
  for (const auto& m : rollup) {
    if (m.module == "encoder") encoder_total = m.total_us;
    if (m.module == "encoder.mlp.fc0") fc0_total = m.total_us;
    if (m.module.find('.') == std::string::npos) all_roots += m.total_us;
  }
  EXPECT_GE(encoder_total, fc0_total);
  EXPECT_EQ(all_roots, obs::Profiler::Global().TotalSelfUs())
      << "top-level rollup rows must partition the profiled time";
}

TEST(ProfilerTest, ToJsonCarriesOpsAndModules) {
  ScopedProfile profile;
  util::Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, &rng, 1.0f, /*requires_grad=*/false);
  (void)nn::Relu(a);
  const std::string json = obs::Profiler::Global().ToJson();
  EXPECT_NE(json.find("\"ops\""), std::string::npos);
  EXPECT_NE(json.find("\"modules\""), std::string::npos);
  EXPECT_NE(json.find("\"Relu\""), std::string::npos);
  EXPECT_NE(json.find("\"total_self_us\""), std::string::npos);
}

// RecordOp memoizes rows per thread by the op and module pointers. The memo
// must not outlive Reset(), and a module path buffer reused for another
// name must get its own row.
TEST(ProfilerTest, RepeatedRecordsSurviveResetAndPathReuse) {
  obs::Profiler profiler;
  char path[] = "model.block0";
  for (int i = 0; i < 3; ++i) {
    profiler.RecordOp("Add", path, /*backward=*/false, 1, 1, 0, 0);
  }
  ASSERT_EQ(profiler.Rows().size(), 1u);
  EXPECT_EQ(profiler.Rows()[0].calls, 3u);

  profiler.Reset();
  profiler.RecordOp("Add", path, /*backward=*/false, 1, 1, 0, 0);
  ASSERT_EQ(profiler.Rows().size(), 1u);
  EXPECT_EQ(profiler.Rows()[0].calls, 1u);

  path[11] = '1';  // Same pointer, now "model.block1".
  profiler.RecordOp("Add", path, /*backward=*/false, 1, 1, 0, 0);
  profiler.RecordOp("Add", path, /*backward=*/true, 1, 1, 0, 0);
  const auto rows = profiler.Rows();
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.calls, 1u) << row.module << " " << row.backward;
  }
}

/// The whitespace-separated fields of each line of `text`, keyed by the
/// line's first field.
std::map<std::string, std::vector<std::string>> LinesByFirstField(
    const std::string& text) {
  std::map<std::string, std::vector<std::string>> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    std::istringstream words(line);
    std::vector<std::string> fields;
    for (std::string word; words >> word;) fields.push_back(word);
    if (!fields.empty()) lines[fields[0]] = fields;
  }
  return lines;
}

// PrintTable's last two columns, in the op table and the module rollup: a
// row's total work (GFLOP) and that work over its self time (GFLOP/s).
TEST(ProfilerTest, PrintTableShowsTotalWorkAndRate) {
  obs::Profiler profiler;
  // 3 GFLOP in 1.5 ms of self time: 2000 GFLOP/s.
  profiler.RecordOp("Pinned", "pinned", /*backward=*/false, 1500, 2000,
                    3000000000ull, 0);
  // 5 GFLOP with no self time: the rate prints 0, not inf.
  profiler.RecordOp("Idle", "idle", /*backward=*/false, 0, 0, 5000000000ull,
                    0);
  char* buffer = nullptr;
  size_t size = 0;
  std::FILE* out = open_memstream(&buffer, &size);
  ASSERT_NE(out, nullptr);
  profiler.PrintTable(out);
  std::fclose(out);
  const std::string text(buffer, size);
  std::free(buffer);
  auto lines = LinesByFirstField(text);
  auto last_two = [&](const std::string& first) {
    const std::vector<std::string>& fields = lines[first];
    EXPECT_GE(fields.size(), 2u) << first << " missing in\n" << text;
    if (fields.size() < 2) return std::vector<std::string>{};
    return std::vector<std::string>(fields.end() - 2, fields.end());
  };
  const std::vector<std::string> heading = {"GFLOP", "GFLOP/s"};
  EXPECT_EQ(last_two("op"), heading);
  EXPECT_EQ(last_two("module"), heading);
  EXPECT_EQ(last_two("Pinned"), (std::vector<std::string>{"3.00", "2000.00"}));
  EXPECT_EQ(last_two("Idle"), (std::vector<std::string>{"5.00", "0.00"}));
  EXPECT_EQ(last_two("pinned"), (std::vector<std::string>{"3.00", "2000.00"}));
  EXPECT_EQ(last_two("idle"), (std::vector<std::string>{"5.00", "0.00"}));
}

TEST(MemoryTrackerTest, TracksLivePeakAndPhaseChurn) {
  auto& tracker = obs::MemoryTracker::Global();
  const int64_t live_before = tracker.live_bytes();
  const int64_t forward_bytes_before =
      tracker.alloc_bytes(obs::MemPhase::kForward);
  {
    obs::ScopedMemPhase phase(obs::MemPhase::kForward);
    Tensor t = Tensor::Zeros({10, 100}, /*requires_grad=*/false);
    // 1000 floats of payload attributed to the forward phase.
    EXPECT_EQ(tracker.live_bytes() - live_before, 4000);
    EXPECT_EQ(tracker.alloc_bytes(obs::MemPhase::kForward) -
                  forward_bytes_before,
              4000);
    EXPECT_GE(tracker.peak_bytes(), tracker.live_bytes());
  }
  // Destruction returns the payload.
  EXPECT_EQ(tracker.live_bytes(), live_before);
}

TEST(MemoryTrackerTest, GradMaterializationIsTracked) {
  auto& tracker = obs::MemoryTracker::Global();
  const int64_t live_before = tracker.live_bytes();
  {
    util::Rng rng(3);
    Tensor a = Tensor::Randn({10, 100}, &rng, 1.0f, /*requires_grad=*/true);
    EXPECT_EQ(tracker.live_bytes() - live_before, 4000);
    nn::Sum(a).Backward();  // Materializes a.grad (+ the Sum scalar).
    EXPECT_GE(tracker.live_bytes() - live_before, 8000);
  }
  EXPECT_EQ(tracker.live_bytes(), live_before);
}

TEST(IntrospectTest, FindsMostUpstreamNonFiniteNode) {
  util::Rng rng(3);
  Tensor a = Tensor::FromData({1, 2}, {-1.0f, 2.0f});
  a.set_requires_grad(true);
  Tensor bad = nn::Log(a);  // log(-1) = NaN.
  Tensor loss = nn::Sum(nn::Mul(bad, bad));  // NaN propagates downstream.
  const auto site = nn::FindFirstNonFinite(loss);
  ASSERT_TRUE(site.found);
  // Every node from Log down holds the NaN; the minimum-seq rule picks the
  // Log node itself, whose tag the op profiler stamped at creation.
  EXPECT_EQ(site.op, "Log");
  EXPECT_FALSE(site.in_grad);
  EXPECT_EQ(site.shape, "[1, 2]");
}

TEST(IntrospectTest, CleanGraphReportsNothing) {
  Tensor a = Tensor::FromData({1, 2}, {1.0f, 2.0f});
  const auto site = nn::FindFirstNonFinite(nn::Sum(a));
  EXPECT_FALSE(site.found);
}

#endif  // BIGCITY_OBS

TEST(HistogramPercentileTest, InterpolatesWithinBuckets) {
  // 10 samples <= 1, 10 in (1, 3]: p50 sits at the first bucket edge and
  // p75 halfway into the second bucket.
  const std::vector<double> bounds = {1.0, 3.0};
  const std::vector<uint64_t> buckets = {10, 10, 0};
  EXPECT_NEAR(obs::HistogramPercentile(bounds, buckets, 0.50), 1.0, 1e-9);
  EXPECT_NEAR(obs::HistogramPercentile(bounds, buckets, 0.75), 2.0, 1e-9);
  EXPECT_NEAR(obs::HistogramPercentile(bounds, buckets, 1.0), 3.0, 1e-9);
  // Overflow samples clamp to the last finite bound.
  const std::vector<uint64_t> overflow = {0, 0, 5};
  EXPECT_NEAR(obs::HistogramPercentile(bounds, overflow, 0.99), 3.0, 1e-9);
  // Empty histogram / no bounds degrade to 0.
  EXPECT_EQ(obs::HistogramPercentile(bounds, {0, 0, 0}, 0.5), 0.0);
  EXPECT_EQ(obs::HistogramPercentile({}, {}, 0.5), 0.0);
}

TEST(HistogramPercentileTest, SnapshotJsonCarriesPercentiles) {
  auto* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "test.profiler_test.latency");
  for (int i = 1; i <= 100; ++i) histogram->Record(static_cast<double>(i));
  const std::string json =
      obs::MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(RunReportTest, RawAppendsVerbatimJson) {
  // json() is the object under construction; Write() closes the brace.
  obs::RunReport::Record record;
  record.Str("event", "health").Raw("layers", "[{\"module\":\"a\"}]");
  EXPECT_EQ(record.json(),
            "{\"event\":\"health\",\"layers\":[{\"module\":\"a\"}]");
}

}  // namespace
}  // namespace bigcity
