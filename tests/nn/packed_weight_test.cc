// Packed-weight contract (DESIGN.md §4.8): a registered parameter that the
// current forward does not train keeps its blocked-GEMM B packing across
// calls. These tests pin when the packing is reused, that every write path
// invalidates it, that equal weights share one packing by content (and
// nearly equal ones do not), that it dies with its last holder, that
// concurrent first forwards on one model agree with a single thread, and
// that a serving loop packs nothing once warm.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/rng.h"

namespace bigcity::nn {
namespace {

/// Runs each test on the blocked backend, whose packing these tests are
/// about (kernels_test covers the naive branch), whatever BIGCITY_GEMM
/// selects, and restores the process-global backend + thread count after.
class PackedWeightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = kernels::backend();
    saved_threads_ = kernels::NumThreads();
    kernels::SetBackend(kernels::GemmBackend::kBlocked);
  }
  void TearDown() override {
    kernels::SetBackend(saved_backend_);
    kernels::SetNumThreads(saved_threads_);
  }

 private:
  kernels::GemmBackend saved_backend_ = kernels::GemmBackend::kBlocked;
  int saved_threads_ = 1;
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double GaugeValue(const char* name) {
  return obs::MetricsRegistry::Global().GetGauge(name)->Value();
}

/// Metric checks; no-ops in the obs-off build flavor, where the probes
/// compile out and the registry never moves. The behavioral assertions
/// around them still run there.
void ExpectCounterDelta(const char* name, uint64_t before, uint64_t delta) {
#if BIGCITY_OBS
  EXPECT_EQ(CounterValue(name), before + delta) << name;
#else
  (void)name;
  (void)before;
  (void)delta;
#endif
}

void ExpectGaugeDelta(const char* name, double before, double delta) {
#if BIGCITY_OBS
  EXPECT_EQ(GaugeValue(name), before + delta) << name;
#else
  (void)name;
  (void)before;
  (void)delta;
#endif
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The three Linear forwards (Affine, MatMul + BiasGelu, AffineResidual)
/// without grad, concatenated.
std::vector<float> ForwardAll(const Linear& linear, const Tensor& x,
                              const Tensor& residual) {
  NoGradGuard no_grad;
  std::vector<float> out;
  for (const Tensor& y : {linear.Forward(x), linear.ForwardGelu(x),
                          linear.ForwardResidual(x, residual)}) {
    out.insert(out.end(), y.data().begin(), y.data().end());
  }
  return out;
}

std::vector<float> NaiveForwardAll(const Linear& linear, const Tensor& x,
                                   const Tensor& residual) {
  const kernels::GemmBackend saved = kernels::backend();
  kernels::SetBackend(kernels::GemmBackend::kNaive);
  std::vector<float> out = ForwardAll(linear, x, residual);
  kernels::SetBackend(saved);
  return out;
}

std::vector<float> Values(const Tensor& t) {
  return std::vector<float>(t.data().begin(), t.data().end());
}

const kernels::PackedB* PanelsOf(const Tensor& weight) {
  return weight.impl()->packed->panels.get();
}

TEST_F(PackedWeightTest, EveryWritePathInvalidatesThePacking) {
  util::Rng rng(5);
  // M = 300: two column blocks and a ragged last slab.
  Linear linear(40, 300, &rng);
  const Tensor x = Tensor::Randn({20, 40}, &rng);
  const Tensor residual = Tensor::Randn({20, 300}, &rng);
  std::vector<float> previous;
  auto expect_fresh = [&](const char* path) {
    SCOPED_TRACE(path);
    const uint64_t calls = CounterValue("kernels.gemm.prepacked_calls");
    const std::vector<float> blocked = ForwardAll(linear, x, residual);
    ExpectCounterDelta("kernels.gemm.prepacked_calls", calls, 3);
    const kernels::PackedB* panels = PanelsOf(linear.weight());
    ASSERT_NE(panels, nullptr);
    EXPECT_TRUE(SameBits(blocked, NaiveForwardAll(linear, x, residual)));
    // The write changed the output, so a stale packing would show.
    EXPECT_FALSE(SameBits(blocked, previous));
    // A second forward reuses the packing without looking it up again.
    const uint64_t lookups = CounterValue("kernels.pack.lookups");
    EXPECT_TRUE(SameBits(ForwardAll(linear, x, residual), blocked));
    ExpectCounterDelta("kernels.pack.lookups", lookups, 0);
    EXPECT_EQ(PanelsOf(linear.weight()), panels);
    previous = blocked;
  };
  expect_fresh("first forward");

  util::Rng other_rng(6);
  Linear loaded_from(40, 300, &other_rng);
  std::stringstream state;
  loaded_from.SaveState(state);
  ASSERT_TRUE(linear.LoadState(state).ok());
  expect_fresh("LoadState");

  Linear copied_from(40, 300, &other_rng);
  ForwardAll(copied_from, x, residual);
  const PackedWeight& source = *copied_from.weight().impl()->packed;
  const uint64_t source_writes = source.version.load();
  linear.CopyStateFrom(copied_from);
  expect_fresh("CopyStateFrom");
  // Copying reads the source without counting as a write to it.
  EXPECT_EQ(source.version.load(), source_writes);
  EXPECT_EQ(source.packed_version, source_writes);

  Adam adam(linear.Parameters(), /*lr=*/0.05f);
  {
    Tensor loss = Sum(linear.Forward(x));
    loss.Backward();
  }
  adam.Step();
  expect_fresh("optimizer step");

  Tensor weight = linear.weight();
  weight.data()[7] += 1.0f;
  expect_fresh("direct data() write");
}

TEST_F(PackedWeightTest, OnlyWeightsTheForwardDoesNotTrainArePacked) {
  util::Rng rng(8);
  Linear linear(24, 48, &rng);
  const Tensor x = Tensor::Randn({16, 24}, &rng);
  // Trainable and grad enabled: packed per call, never cached.
  uint64_t calls = CounterValue("kernels.gemm.prepacked_calls");
  Tensor trained = linear.Forward(x);
  ExpectCounterDelta("kernels.gemm.prepacked_calls", calls, 0);
  EXPECT_EQ(PanelsOf(linear.weight()), nullptr);
  // Frozen, grad still enabled (the backbone during training).
  linear.SetTrainable(false);
  Tensor frozen = linear.Forward(x);
  ExpectCounterDelta("kernels.gemm.prepacked_calls", calls, 1);
  EXPECT_NE(PanelsOf(linear.weight()), nullptr);
  EXPECT_TRUE(SameBits(Values(trained), Values(frozen)));
  // Activations are never cached, even under NoGradGuard.
  NoGradGuard no_grad;
  const Tensor activation = Tensor::Randn({24, 48}, &rng);
  calls = CounterValue("kernels.gemm.prepacked_calls");
  MatMul(x, activation);
  ExpectCounterDelta("kernels.gemm.prepacked_calls", calls, 0);
  EXPECT_EQ(activation.impl()->packed, nullptr);
  // Short products take the rank-one path and fetch no packing: one row
  // always, up to eight unless the micro-kernel beats it there.
  Linear short_only(24, 48, &rng);
  short_only.Forward(Tensor::Randn({1, 24}, &rng));
  EXPECT_EQ(PanelsOf(short_only.weight()), nullptr);
  short_only.Forward(Tensor::Randn({8, 24}, &rng));
  EXPECT_EQ(PanelsOf(short_only.weight()) != nullptr,
            kernels::GemmABReadsPanels(8));
}

TEST_F(PackedWeightTest, EqualWeightsShareOnePacking) {
  util::Rng rng_a(11), rng_b(11);
  Linear a(64, 96, &rng_a), b(64, 96, &rng_b);
  util::Rng rng(12);
  const Tensor x = Tensor::Randn({12, 64}, &rng);
  const Tensor residual = Tensor::Randn({12, 96}, &rng);
  const uint64_t packings = CounterValue("kernels.pack.packings");
  const std::vector<float> out_a = ForwardAll(a, x, residual);
  const std::vector<float> out_b = ForwardAll(b, x, residual);
  ExpectCounterDelta("kernels.pack.packings", packings, 1);
  ASSERT_NE(PanelsOf(a.weight()), nullptr);
  EXPECT_EQ(PanelsOf(a.weight()), PanelsOf(b.weight()));
  EXPECT_TRUE(SameBits(out_a, out_b));
}

TEST_F(PackedWeightTest, OneBitOrSignedZeroApartDoesNotShare) {
  util::Rng rng(13);
  const Tensor x = Tensor::Randn({10, 32}, &rng);
  const Tensor residual = Tensor::Randn({10, 40}, &rng);
  auto check_apart = [&](const char* what, auto&& edit) {
    SCOPED_TRACE(what);
    util::Rng rng_a(14), rng_b(14);
    Linear a(32, 40, &rng_a), b(32, 40, &rng_b);
    Tensor wa = a.weight(), wb = b.weight();
    edit(wa.data().data(), wb.data().data());
    ASSERT_NE(std::memcmp(wa.data().data(), wb.data().data(),
                          wa.data().size() * sizeof(float)),
              0);
    const std::vector<float> out_a = ForwardAll(a, x, residual);
    const std::vector<float> out_b = ForwardAll(b, x, residual);
    ASSERT_NE(PanelsOf(a.weight()), nullptr);
    ASSERT_NE(PanelsOf(b.weight()), nullptr);
    EXPECT_NE(PanelsOf(a.weight()), PanelsOf(b.weight()));
    EXPECT_TRUE(PanelsOf(a.weight())->Holds(std::as_const(wa).data().data()));
    EXPECT_TRUE(PanelsOf(b.weight())->Holds(std::as_const(wb).data().data()));
    EXPECT_TRUE(SameBits(out_a, NaiveForwardAll(a, x, residual)));
    EXPECT_TRUE(SameBits(out_b, NaiveForwardAll(b, x, residual)));
  };
  check_apart("one bit", [](float*, float* wb) {
    uint32_t bits = 0;
    std::memcpy(&bits, &wb[37], sizeof(bits));
    bits ^= 1u;  // Last mantissa bit.
    std::memcpy(&wb[37], &bits, sizeof(bits));
  });
  check_apart("-0 vs +0", [](float* wa, float* wb) {
    wa[5] = 0.0f;
    wb[5] = -0.0f;
  });
}

TEST_F(PackedWeightTest, PackingDiesWithItsLastHolder) {
  util::Rng rng(15);
  const Tensor x = Tensor::Randn({16, 48}, &rng);
  const Tensor residual = Tensor::Randn({16, 80}, &rng);
  auto make = [] {
    util::Rng weights_rng(16);
    return std::make_unique<Linear>(48, 80, &weights_rng);
  };
  const double live_bytes = GaugeValue("kernels.pack.live_bytes");
  auto first = make();
  auto second = make();
  ForwardAll(*first, x, residual);
  ForwardAll(*second, x, residual);
  ASSERT_EQ(PanelsOf(first->weight()), PanelsOf(second->weight()));
  const std::weak_ptr<const kernels::PackedB> packing =
      first->weight().impl()->packed->panels;
  ASSERT_NE(packing.lock(), nullptr);
  ExpectGaugeDelta("kernels.pack.live_bytes", live_bytes,
                   static_cast<double>(packing.lock()->bytes()));
  first.reset();
  EXPECT_FALSE(packing.expired());
  second.reset();
  EXPECT_TRUE(packing.expired());
  ExpectGaugeDelta("kernels.pack.live_bytes", live_bytes, 0);
  // The content is gone from the store too: the next holder packs again.
  auto third = make();
  const uint64_t packings = CounterValue("kernels.pack.packings");
  ForwardAll(*third, x, residual);
  ExpectCounterDelta("kernels.pack.packings", packings, 1);
}

/// Four threads make the first no-grad forwards of one shared model at
/// once, so they race to pack the same weights. Run under TSan by
/// ci/run_ci.sh tsan.
TEST_F(PackedWeightTest, ConcurrentFirstForwardsMatchOneThread) {
  kernels::SetNumThreads(1);
  util::Rng rng(21);
  Transformer model(64, 4, 2, &rng, /*causal=*/true);
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(Tensor::Randn({12 + 5 * t, 64}, &rng));
  }
  std::vector<std::vector<float>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      NoGradGuard no_grad;
      start.arrive_and_wait();
      const Tensor y = model.Forward(inputs[static_cast<size_t>(t)]);
      concurrent[static_cast<size_t>(t)].assign(y.data().begin(),
                                                y.data().end());
    });
  }
  for (auto& thread : threads) thread.join();
  NoGradGuard no_grad;
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    const Tensor& x = inputs[static_cast<size_t>(t)];
    const Tensor y = model.Forward(x);
    EXPECT_TRUE(SameBits(concurrent[static_cast<size_t>(t)], Values(y)));
    kernels::SetBackend(kernels::GemmBackend::kNaive);
    const Tensor naive = model.Forward(x);
    kernels::SetBackend(kernels::GemmBackend::kBlocked);
    EXPECT_TRUE(
        SameBits(concurrent[static_cast<size_t>(t)], Values(naive)));
  }
}

TEST_F(PackedWeightTest, ServingLoopPacksNothingAfterWarmUp) {
#if !BIGCITY_OBS
  GTEST_SKIP() << "lookups and packings are counted by obs counters";
#else
  auto config = data::ScaleConfig(data::XianLikeConfig(), 0.1);
  config.city.grid_width = 5;
  config.city.grid_height = 5;
  data::CityDataset dataset(config);
  core::BigCityConfig model_config;
  model_config.d_model = 32;
  model_config.num_heads = 2;
  model_config.num_layers = 2;
  model_config.spatial_dim = 16;
  model_config.gat_hidden = 16;
  serve::ServeOptions options;
  options.num_workers = 1;
  options.attach_lora = true;
  serve::InferenceServer server(&dataset, model_config, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<serve::Request> requests;
  for (const auto& trajectory : dataset.train()) {
    if (trajectory.length() < 10) continue;
    for (core::Task task :
         {core::Task::kNextHop, core::Task::kTravelTimeEstimation,
          core::Task::kTrajClassification}) {
      serve::Request request;
      request.task = task;
      request.trajectory = trajectory;
      request.id = requests.size();
      requests.push_back(std::move(request));
    }
    if (requests.size() >= 12) break;
  }
  ASSERT_FALSE(requests.empty());
  auto serve_all = [&] {
    for (const serve::Request& request : requests) {
      ASSERT_TRUE(server.ServeSync(request).status.ok());
    }
  };
  const uint64_t cold = CounterValue("kernels.pack.packings");
  serve_all();  // Warm-up: the first forwards pack.
  const uint64_t packings = CounterValue("kernels.pack.packings");
  EXPECT_GT(packings, cold);
  const uint64_t lookups = CounterValue("kernels.pack.lookups");
  const uint64_t calls = CounterValue("kernels.gemm.prepacked_calls");
  serve_all();
  serve_all();
  EXPECT_GT(CounterValue("kernels.gemm.prepacked_calls"), calls);
  EXPECT_EQ(CounterValue("kernels.pack.lookups"), lookups);
  EXPECT_EQ(CounterValue("kernels.pack.packings"), packings);
  server.Stop();
#endif
}

}  // namespace
}  // namespace bigcity::nn
