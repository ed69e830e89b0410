// Self-healing serving tests (DESIGN.md §4.16): worker watchdog
// (hang detection, request reaping, worker replacement), the memory-aware
// overload controller, and the deterministic stall/leak fault kinds that
// drive them. Behavioral assertions use the server's plain-code
// introspection counters so every test also passes in the
// BIGCITY_OBS=OFF build flavor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/overload.h"
#include "serve/server.h"
#include "util/fault_injection.h"

namespace bigcity::serve {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

void ExpectCounterDeltaAtLeast(const char* name, uint64_t before,
                               uint64_t delta) {
#if BIGCITY_OBS
  EXPECT_GE(CounterValue(name), before + delta) << name;
#else
  (void)name;
  (void)before;
  (void)delta;
#endif
}

template <typename Pred>
bool WaitFor(Pred pred, double timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  while (!pred()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

class WatchdogTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = data::ScaleConfig(data::XianLikeConfig(), 0.1);
    config.city.grid_width = 5;
    config.city.grid_height = 5;
    dataset_ = new data::CityDataset(config);
    model_config_.d_model = 32;
    model_config_.num_heads = 2;
    model_config_.num_layers = 1;
    model_config_.spatial_dim = 16;
    model_config_.gat_hidden = 16;
    prototype_ = new core::BigCityModel(dataset_, model_config_);
  }
  static void TearDownTestSuite() {
    delete prototype_;
    delete dataset_;
    prototype_ = nullptr;
    dataset_ = nullptr;
  }
  void TearDown() override {
    util::FaultInjection::DisarmAll();
    util::FaultInjection::FreeLeaks();
  }

  static const data::Trajectory& AnyTrajectory(int min_len = 5) {
    for (const auto& t : dataset_->train()) {
      if (t.length() >= min_len) return t;
    }
    return dataset_->train().front();
  }

  /// Fast supervision: hangs are declared within ~100ms so the reap tests
  /// finish in well under a second.
  static ServeOptions WatchdogOptions() {
    ServeOptions options;
    options.num_workers = 1;
    options.queue_capacity = 8;
    options.retry_backoff_ms = 0.1;
    options.hang_threshold_ms = 100.0;
    options.watchdog_poll_ms = 5.0;
    return options;
  }

  static Request NextHopRequest() {
    Request request;
    request.task = core::Task::kNextHop;
    request.trajectory = AnyTrajectory();
    return request;
  }

  static data::CityDataset* dataset_;
  static core::BigCityConfig model_config_;
  static core::BigCityModel* prototype_;
};

data::CityDataset* WatchdogTest::dataset_ = nullptr;
core::BigCityConfig WatchdogTest::model_config_;
core::BigCityModel* WatchdogTest::prototype_ = nullptr;

// --- Fault-kind units -------------------------------------------------------

TEST(FaultStallTest, UnarmedStallIsFreeAndArmedStallWaitsParamMs) {
  EXPECT_FALSE(util::FaultInjection::MaybeStall("no.such.site"));
  util::FaultInjection::Arm(util::kFaultServeWorkerStall, /*skip=*/0,
                            /*count=*/1, /*param=*/20);
  const Clock::time_point start = Clock::now();
  EXPECT_TRUE(util::FaultInjection::MaybeStall(util::kFaultServeWorkerStall));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  EXPECT_GE(elapsed_ms, 10.0);  // Slept most of the 20ms (scheduler slop).
  // Count exhausted: the next hit passes through untouched.
  EXPECT_FALSE(util::FaultInjection::MaybeStall(util::kFaultServeWorkerStall));
  util::FaultInjection::DisarmAll();
}

TEST(FaultStallTest, DisarmReleasesAWedgedThreadEarly) {
  util::FaultInjection::Arm(util::kFaultServeWorkerStall, /*skip=*/0,
                            /*count=*/1, /*param=*/60000);
  std::atomic<bool> released{false};
  std::thread wedged([&] {
    util::FaultInjection::MaybeStall(util::kFaultServeWorkerStall);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
  wedged.join();  // Must return promptly, not after 60s.
  EXPECT_TRUE(released.load());
}

TEST(FaultLeakTest, LeakRetainsBytesUntilFreed) {
  util::FaultInjection::FreeLeaks();
  const int64_t block = 1 << 20;
  util::FaultInjection::Arm(util::kFaultServeWorkerLeak, /*skip=*/0,
                            /*count=*/2, /*param=*/block);
  EXPECT_EQ(util::FaultInjection::MaybeLeak(util::kFaultServeWorkerLeak),
            block);
  EXPECT_EQ(util::FaultInjection::MaybeLeak(util::kFaultServeWorkerLeak),
            block);
  // Count exhausted.
  EXPECT_EQ(util::FaultInjection::MaybeLeak(util::kFaultServeWorkerLeak), 0);
  EXPECT_EQ(util::FaultInjection::LeakedBytes(), 2 * block);
  util::FaultInjection::FreeLeaks();
  EXPECT_EQ(util::FaultInjection::LeakedBytes(), 0);
  util::FaultInjection::DisarmAll();
}

// --- Overload controller units ----------------------------------------------

TEST(OverloadControllerTest, HysteresisIsMonotoneOnRecovery) {
  OverloadController::Options options;
  options.mem_budget_bytes = 100;
  options.high_watermark = 0.90;
  options.low_watermark = 0.75;
  OverloadController controller(options);

  EXPECT_EQ(controller.SampleBytes(50), OverloadController::State::kNormal);
  EXPECT_TRUE(controller.AdmitOk());
  EXPECT_EQ(controller.SampleBytes(80), OverloadController::State::kPressure);
  EXPECT_TRUE(controller.AdmitOk());  // Pressure shrinks, never sheds.
  EXPECT_EQ(controller.SampleBytes(95), OverloadController::State::kShedding);
  EXPECT_FALSE(controller.AdmitOk());
  // Hysteresis: hovering between the watermarks keeps shedding.
  EXPECT_EQ(controller.SampleBytes(85), OverloadController::State::kShedding);
  EXPECT_FALSE(controller.AdmitOk());
  // Only dropping below the low watermark recovers — straight to normal.
  EXPECT_EQ(controller.SampleBytes(70), OverloadController::State::kNormal);
  EXPECT_TRUE(controller.AdmitOk());
  EXPECT_EQ(controller.peak_sampled_bytes(), 95);
}

TEST(OverloadControllerTest, DegradedStatesHalveCapacities) {
  OverloadController::Options options;
  options.mem_budget_bytes = 100;
  options.min_batch_max = 1;
  OverloadController controller(options);

  EXPECT_EQ(controller.EffectiveBatchMax(8), 8);
  EXPECT_EQ(controller.EffectiveQueueCapacity(16), 16u);
  controller.SampleBytes(80);  // kPressure.
  EXPECT_EQ(controller.EffectiveBatchMax(8), 4);
  EXPECT_EQ(controller.EffectiveBatchMax(1), 1);  // Floored.
  EXPECT_EQ(controller.EffectiveQueueCapacity(16), 8u);
  EXPECT_EQ(controller.EffectiveQueueCapacity(1), 1u);  // Floored.
  EXPECT_EQ(controller.EffectiveKvCapacity(8), 4u);
  EXPECT_EQ(controller.EffectiveKvCapacity(0), 0u);  // Off stays off.
}

TEST(OverloadControllerTest, ZeroBudgetDisablesMemoryControl) {
  OverloadController controller(OverloadController::Options{});
  EXPECT_EQ(controller.SampleBytes(1 << 30),
            OverloadController::State::kNormal);
  EXPECT_TRUE(controller.AdmitOk());
  EXPECT_EQ(controller.pressure(), 0.0);
}

TEST(OverloadControllerTest, CodelDropsAfterIntervalThenSpacesDrops) {
  OverloadController::Options options;
  options.sojourn_target_ms = 1.0;
  options.sojourn_interval_ms = 10.0;
  OverloadController controller(options);
  const Clock::time_point base = Clock::now();
  const auto ms = [&](double m) {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(m));
  };

  // Above target, but the interval has not elapsed: no drop yet.
  EXPECT_FALSE(controller.ShouldDropStale(/*sojourn_us=*/5000.0, ms(0)));
  EXPECT_FALSE(controller.ShouldDropStale(5000.0, ms(5)));
  // One full interval above target: dropping starts.
  EXPECT_TRUE(controller.ShouldDropStale(5000.0, ms(11)));
  // Immediately after a drop the control law spaces the next one.
  EXPECT_FALSE(controller.ShouldDropStale(5000.0, ms(11.5)));
  // interval/sqrt(2) ≈ 7.1ms later the next drop fires.
  EXPECT_TRUE(controller.ShouldDropStale(5000.0, ms(20)));
  // Sojourn back under target resets the law entirely.
  EXPECT_FALSE(controller.ShouldDropStale(100.0, ms(21)));
  EXPECT_FALSE(controller.ShouldDropStale(5000.0, ms(22)));  // Fresh interval.
}

// --- Watchdog end-to-end ----------------------------------------------------

TEST_F(WatchdogTest, ReapsHungWorkerWithDefiniteStatusAndReplacesIt) {
  InferenceServer server(dataset_, model_config_, WatchdogOptions(),
                         prototype_);
  ASSERT_TRUE(server.Start().ok());

  // Healthy baseline forward; also the bit-identity reference output.
  Response before = server.ServeSync(NextHopRequest());
  ASSERT_TRUE(before.status.ok());

  const uint64_t reaped_before = CounterValue("serve.watchdog.reaped");
  const uint64_t hangs_before = CounterValue("serve.watchdog.hangs");

  // Wedge the (only) worker mid-request far past the 100ms threshold. The
  // stall sleeps in 1ms slices re-reading Param, so Disarm below releases
  // the parked thread long before the nominal 60s.
  util::FaultInjection::Arm(util::kFaultServeWorkerStall, /*skip=*/0,
                            /*count=*/1, /*param=*/60000);
  std::future<Response> doomed = server.Submit(NextHopRequest());
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "reap must resolve the caller's future while the worker is wedged";
  Response reaped = doomed.get();
  EXPECT_EQ(reaped.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(reaped.outcome, Outcome::kReaped);
  EXPECT_NE(reaped.trace_id, 0u);

  EXPECT_TRUE(WaitFor([&] { return server.watchdog_replacements() >= 1; },
                      2000.0));
  EXPECT_EQ(server.watchdog_hangs(), 1u);
  EXPECT_GE(server.watchdog_reaps(), 1u);
  ExpectCounterDeltaAtLeast("serve.watchdog.reaped", reaped_before, 1);
  ExpectCounterDeltaAtLeast("serve.watchdog.hangs", hangs_before, 1);

  // Release the wedged thread (it parks until Stop joins it) and verify
  // no permanent capacity loss: the replacement worker serves, and its
  // outputs are bit-identical to the pre-hang responses.
  util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
  for (int i = 0; i < 8; ++i) {
    Response after = server.ServeSync(NextHopRequest());
    ASSERT_TRUE(after.status.ok()) << after.status.message();
    ASSERT_EQ(after.output.data().size(), before.output.data().size());
    for (size_t j = 0; j < before.output.data().size(); ++j) {
      ASSERT_EQ(after.output.data()[j], before.output.data()[j])
          << "replacement worker output diverged at " << j;
    }
  }
  server.Stop();
}

TEST_F(WatchdogTest, StallBelowThresholdIsNotReaped) {
  ServeOptions options = WatchdogOptions();
  options.hang_threshold_ms = 2000.0;  // Far above the injected stall.
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  util::FaultInjection::Arm(util::kFaultServeWorkerStall, /*skip=*/0,
                            /*count=*/1, /*param=*/30);
  Response response = server.ServeSync(NextHopRequest());
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(server.watchdog_hangs(), 0u);
  EXPECT_EQ(server.watchdog_replacements(), 0u);
  server.Stop();
}

TEST_F(WatchdogTest, BatchedMembersAreAllReapedTogether) {
  ServeOptions options = WatchdogOptions();
  options.batch_window_us = 50000.0;  // Wide window: both requests co-batch.
  options.batch_max = 4;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  util::FaultInjection::Arm(util::kFaultServeWorkerStall, /*skip=*/0,
                            /*count=*/1, /*param=*/60000);
  std::future<Response> first = server.Submit(NextHopRequest());
  std::future<Response> second = server.Submit(NextHopRequest());
  ASSERT_EQ(first.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  // Both members of the stalled batch resolve definitively. (They may have
  // dispatched as two singleton batches; then the second was served by the
  // replacement worker and succeeded — either way, no hung future.)
  const Response r1 = first.get();
  const Response r2 = second.get();
  EXPECT_TRUE(r1.status.ok() ||
              r1.status.code() == util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r2.status.ok() ||
              r2.status.code() == util::StatusCode::kDeadlineExceeded);
  EXPECT_GE(server.watchdog_reaps(), 1u);
  util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
  server.Stop();
}

// --- Memory overload end-to-end ---------------------------------------------

TEST_F(WatchdogTest, LeakDrivesSheddingAndRecoveryIsMonotone) {
  util::FaultInjection::FreeLeaks();
  const int64_t baseline = OverloadController::CurrentMemoryBytes();
  ServeOptions options = WatchdogOptions();
  // Budget sized so the injected leak trips the high watermark and
  // freeing it lands well below the low one, in both obs flavors (the
  // leak tally is plain code; tensor tracking may read 0).
  options.mem_budget_bytes = 4 * baseline + (16 << 20);
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.overload(), nullptr);

  Response warm = server.ServeSync(NextHopRequest());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(server.overload()->state(), OverloadController::State::kNormal);

  // One worker dequeue leaks a full budget's worth: pressure >= 1.
  util::FaultInjection::Arm(util::kFaultServeWorkerLeak, /*skip=*/0,
                            /*count=*/1, /*param=*/options.mem_budget_bytes);
  (void)server.ServeSync(NextHopRequest());
  ASSERT_TRUE(WaitFor(
      [&] {
        return server.overload()->state() ==
               OverloadController::State::kShedding;
      },
      2000.0))
      << "supervisor must sample the leak into the shedding state";

  // Shedding: new admissions fail fast with the typed overload status.
  Response shed = server.ServeSync(NextHopRequest());
  EXPECT_EQ(shed.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.outcome, Outcome::kShed);
  EXPECT_GE(server.overload_sheds(), 1u);
  EXPECT_GE(server.overload()->peak_sampled_bytes(),
            options.mem_budget_bytes);

  // Freeing the leak recovers to normal (monotone: no flapping through
  // the watermark band) and admissions reopen.
  util::FaultInjection::FreeLeaks();
  ASSERT_TRUE(WaitFor(
      [&] {
        return server.overload()->state() ==
               OverloadController::State::kNormal;
      },
      2000.0));
  Response recovered = server.ServeSync(NextHopRequest());
  EXPECT_TRUE(recovered.status.ok());
  server.Stop();
}

TEST_F(WatchdogTest, SojournBoundDropsStaleRequestsWithDefiniteStatus) {
  ServeOptions options = WatchdogOptions();
  options.sojourn_target_ms = 1.0;
  // Interval well under one forward so the law arms during the drain.
  options.sojourn_interval_ms = 0.5;
  options.queue_capacity = 16;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  // Hold the only worker so a backlog builds queue residency far above
  // the 1ms target, then release and let CoDel shed the stale tail.
  util::FaultInjection::Arm(util::kFaultServeWorkerHold, /*skip=*/0,
                            /*count=*/1, /*param=*/1);
  std::vector<std::future<Response>> futures;
  futures.push_back(server.Submit(NextHopRequest()));  // Trips the hold.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.Submit(NextHopRequest()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);

  int dropped = 0;
  for (std::future<Response>& future : futures) {
    Response response = future.get();
    // Every request resolves definitively: served or dropped, never hung.
    if (response.status.code() == util::StatusCode::kDeadlineExceeded) {
      ++dropped;
    } else {
      EXPECT_TRUE(response.status.ok() ||
                  response.status.code() ==
                      util::StatusCode::kResourceExhausted)
          << response.status.message();
    }
  }
  EXPECT_EQ(server.stale_drops(), static_cast<uint64_t>(dropped));
  EXPECT_GE(dropped, 1) << "a 60ms backlog against a 1ms target must shed";
  server.Stop();
}

// --- Queue effective capacity ------------------------------------------------

TEST(QueueOverloadTest, EffectiveCapacityTightensAndRestores) {
  Batcher<int> queue(
      {.capacity = 4}, [](const int&) { return -1; },
      [](const int&) { return std::numeric_limits<double>::infinity(); },
      [] { return 0.0; });
  queue.SetEffectiveCapacity(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Effective bound.
  EXPECT_EQ(queue.effective_capacity(), 2u);
  // Restoring never exceeds the constructor's hard ceiling.
  queue.SetEffectiveCapacity(100);
  EXPECT_EQ(queue.effective_capacity(), 4u);
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_TRUE(queue.TryPush(4));
  EXPECT_FALSE(queue.TryPush(5));  // Hard ceiling.
}

}  // namespace
}  // namespace bigcity::serve
