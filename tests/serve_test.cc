#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/baseline.h"
#include "serve/batcher.h"
#include "serve/circuit_breaker.h"
#include "serve/server.h"
#include "util/fault_injection.h"

namespace bigcity::serve {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double GaugeValue(const char* name) {
  return obs::MetricsRegistry::Global().GetGauge(name)->Value();
}

/// Counter-delta assertion that degrades to a no-op under the obs-off
/// build flavor, where every BIGCITY_COUNTER_INC probe compiles out and
/// the registry never moves. The behavioral assertions around each call
/// still run there; only the instrumentation check is skipped.
void ExpectCounterDelta(const char* name, uint64_t before, uint64_t delta) {
#if BIGCITY_OBS
  EXPECT_EQ(CounterValue(name), before + delta) << name;
#else
  (void)name;
  (void)before;
  (void)delta;
#endif
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

/// Shared tiny dataset + prototype model (weights copied into the served
/// model), built once for the suite.
class ServeTest : public ::testing::Test {
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
  void TearDown() override { util::FaultInjection::DisarmAll(); }

  static const data::Trajectory& AnyTrajectory(int min_len = 5) {
    for (const auto& t : dataset_->train()) {
      if (t.length() >= min_len) return t;
    }
    return dataset_->train().front();
  }

  static ServeOptions FastOptions() {
    ServeOptions options;
    options.num_workers = 1;
    options.queue_capacity = 8;
    options.retry_backoff_ms = 0.1;
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

data::CityDataset* ServeTest::dataset_ = nullptr;
core::BigCityConfig ServeTest::model_config_;
core::BigCityModel* ServeTest::prototype_ = nullptr;

// --- Queue / circuit breaker units ------------------------------------------

TEST(QueueTest, ShedsWhenFullAndDrainsOnClose) {
  // Negative keys never batch: items come out one at a time, in order.
  Batcher<int> queue(
      {.capacity = 2}, [](const int&) { return -1; },
      [](const int&) { return std::numeric_limits<double>::infinity(); },
      [] { return 0.0; });
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Full: shed.
  EXPECT_EQ(queue.depth(), 2u);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // Closed: shed.
  // Items queued before Close() still drain.
  EXPECT_EQ(queue.NextBatch(), std::vector<int>{1});
  EXPECT_EQ(queue.NextBatch(), std::vector<int>{2});
  EXPECT_TRUE(queue.NextBatch().empty());  // Closed + drained.
}

TEST(CircuitBreakerTest, OpensAfterThresholdAndProbesAfterCooldown) {
  const auto t0 = std::chrono::steady_clock::now();
  CircuitBreaker breaker(/*failure_threshold=*/2, /*cooldown_ms=*/10);
  EXPECT_EQ(breaker.Admit(t0), CircuitBreaker::Decision::kAllow);
  EXPECT_FALSE(breaker.RecordFailure(t0));
  EXPECT_TRUE(breaker.RecordFailure(t0));  // Threshold hit: opens.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.Admit(t0), CircuitBreaker::Decision::kReject);
  // After the cooldown one probe is admitted; concurrent requests reject.
  const auto t1 = t0 + std::chrono::milliseconds(11);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kReject);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kAllow);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  const auto t0 = std::chrono::steady_clock::now();
  CircuitBreaker breaker(1, 10);
  EXPECT_TRUE(breaker.RecordFailure(t0));
  const auto t1 = t0 + std::chrono::milliseconds(11);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kProbe);
  EXPECT_TRUE(breaker.RecordFailure(t1));  // Probe failed: re-opens.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.Admit(t1 + std::chrono::milliseconds(1)),
            CircuitBreaker::Decision::kReject);
}

TEST(CircuitBreakerTest, ReleasedProbeStaysHalfOpenAndProbesAgain) {
  const auto t0 = std::chrono::steady_clock::now();
  CircuitBreaker breaker(1, 10);
  EXPECT_TRUE(breaker.RecordFailure(t0));
  const auto t1 = t0 + std::chrono::milliseconds(11);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kProbe);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kReject);
  // No verdict: the state and failure count stand, the slot comes back.
  breaker.ReleaseProbe();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.consecutive_failures(), 1);
  EXPECT_EQ(breaker.Admit(t1), CircuitBreaker::Decision::kProbe);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// --- Happy path -------------------------------------------------------------

TEST_F(ServeTest, ResponseBitIdenticalToDirectForward) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  Request request = NextHopRequest();
  request.id = 42;
  Response response = server.ServeSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, Outcome::kOk);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.id, 42u);
  EXPECT_EQ(response.retries, 0);

  prototype_->BeginStep();
  nn::Tensor expected = prototype_->NextHopLogits(
      prototype_->ClipTrajectory(request.trajectory));
  ASSERT_EQ(response.output.shape(), expected.shape());
  const auto& got = response.output.data();
  const auto& want = expected.data();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // Bit-identical, not approximately equal: the serving path must not
    // perturb the numerics.
    EXPECT_EQ(got[i], want[i]) << "at " << i;
  }
}

/// Also the one-model-per-version contract (DESIGN.md §4.11): Start fills
/// one ST feature library whatever num_workers is, and requests only read
/// it.
TEST_F(ServeTest, ServesEveryTask) {
  ServeOptions options = FastOptions();
  options.num_workers = 4;
  const uint64_t misses_before = CounterValue("serve.cache.tokenizer.miss");
  const uint64_t hits_before = CounterValue("serve.cache.tokenizer.hit");
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  data::Trajectory trajectory = AnyTrajectory();
  // Recovery rejects trajectories beyond max_trajectory_tokens; keep the
  // shared trajectory short enough for every task.
  if (trajectory.length() > 10) trajectory.points.resize(10);
  std::vector<Request> requests;
  for (core::Task task :
       {core::Task::kNextHop, core::Task::kTravelTimeEstimation,
        core::Task::kTrajClassification, core::Task::kMostSimilarSearch,
        core::Task::kTrafficOneStep, core::Task::kTrafficMultiStep,
        core::Task::kTrafficImputation, core::Task::kTrajRecovery}) {
    Request request;
    request.task = task;
    request.trajectory = trajectory;
    request.horizon = 2;
    request.window = 8;
    request.masked = {2, 5};
    if (task == core::Task::kTrajRecovery) {
      request.kept = {0, trajectory.length() - 1};
    }
    requests.push_back(std::move(request));
  }
  std::vector<std::future<Response>> futures;
  for (auto& request : requests) futures.push_back(server.Submit(request));
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    EXPECT_TRUE(response.status.ok())
        << "task " << i << ": " << response.status.ToString();
    EXPECT_TRUE(response.output.is_valid());
  }
  server.Stop();
#if BIGCITY_OBS
  const double slices = GaugeValue("core.st_library.slices");
  EXPECT_GE(slices, 1.0);
  EXPECT_EQ(CounterValue("serve.cache.tokenizer.miss") - misses_before,
            static_cast<uint64_t>(slices));
  EXPECT_GT(CounterValue("serve.cache.tokenizer.hit"), hits_before);
#else
  (void)misses_before;
  (void)hits_before;
#endif
}

// --- Load shedding ----------------------------------------------------------

TEST_F(ServeTest, FullQueueShedsWithResourceExhausted) {
  ServeOptions options = FastOptions();
  options.queue_capacity = 1;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t shed_before = CounterValue("serve.shed");
  util::ScopedFault hold(util::kFaultServeWorkerHold, 0, 1, /*param=*/1);

  // First request: dequeued, worker parks on the hold site.
  std::future<Response> parked = server.Submit(NextHopRequest());
  while (hold.fire_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Second request occupies the single queue slot; third must shed.
  std::future<Response> queued = server.Submit(NextHopRequest());
  Response shed = server.ServeSync(NextHopRequest());
  EXPECT_EQ(shed.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.outcome, Outcome::kShed);
  EXPECT_FALSE(shed.output.is_valid());
  ExpectCounterDelta("serve.shed", shed_before, 1);
  EXPECT_GT(hold.fire_count(), 0);

  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);  // Release.
  EXPECT_TRUE(parked.get().status.ok());
  EXPECT_TRUE(queued.get().status.ok());
}

TEST_F(ServeTest, StoppedServerSheds) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();
  Response response = server.ServeSync(NextHopRequest());
  EXPECT_EQ(response.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(response.outcome, Outcome::kShed);
}

// --- Deadlines --------------------------------------------------------------

TEST_F(ServeTest, DeadlineExpiryAtEveryCheckpoint) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  struct Case {
    const char* site;
    const char* counter;
  };
  const Case cases[] = {
      {util::kFaultServeExpireAtAdmit, "serve.deadline.pre_queue"},
      {util::kFaultServeExpireAtTokenize, "serve.deadline.pre_tokenize"},
      {util::kFaultServeExpireAtForward, "serve.deadline.pre_forward"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.site);
    const uint64_t before = CounterValue(c.counter);
    util::ScopedFault expire(c.site);
    Response response = server.ServeSync(NextHopRequest());
    EXPECT_EQ(response.status.code(), util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(response.outcome, Outcome::kDeadline);
    EXPECT_FALSE(response.output.is_valid());
    ExpectCounterDelta(c.counter, before, 1);
    EXPECT_GT(expire.fire_count(), 0);
  }
  // The fault checkpoints did not wedge anything: a normal request works.
  EXPECT_TRUE(server.ServeSync(NextHopRequest()).status.ok());
}

TEST_F(ServeTest, RealDeadlineExpiresQueuedRequest) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  // Park the worker so the request's budget burns down in the queue; the
  // pre-tokenize checkpoint must then fire on the real clock.
  util::ScopedFault hold(util::kFaultServeWorkerHold, 0, 1, /*param=*/1);
  std::future<Response> parked = server.Submit(NextHopRequest());
  while (hold.fire_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Request doomed = NextHopRequest();
  doomed.deadline_ms = 5;
  std::future<Response> future = server.Submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);

  EXPECT_TRUE(parked.get().status.ok());
  Response response = future.get();
  EXPECT_EQ(response.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.outcome, Outcome::kDeadline);
}

TEST_F(ServeTest, StallSlowsButCompletesWhenWatchdogDisabled) {
  // hang_threshold_ms = 0 turns the watchdog off entirely: a mid-request
  // stall makes the request slow, never reaped — the caller still gets
  // the real result (DESIGN.md §4.16).
  ServeOptions options = FastOptions();
  options.hang_threshold_ms = 0;
  options.watchdog_poll_ms = 1;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  util::ScopedFault stall(util::kFaultServeWorkerStall, 0, 1, /*param=*/30);
  Response response = server.ServeSync(NextHopRequest());
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.outcome, Outcome::kOk);
  EXPECT_GE(response.total_us, 20000.0);  // The stall showed up end to end.
  EXPECT_EQ(server.watchdog_hangs(), 0u);
  EXPECT_EQ(server.watchdog_reaps(), 0u);
}

// --- Retries and circuit breaking -------------------------------------------

TEST_F(ServeTest, TransientForwardFaultRetriesThenSucceeds) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t retries_before = CounterValue("serve.retries");
  util::ScopedFault fault(util::kFaultServeForwardFail, 0, /*count=*/2);
  Response response = server.ServeSync(NextHopRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.retries, 2);
  EXPECT_FALSE(response.degraded);
  EXPECT_TRUE(response.output.is_valid());
  ExpectCounterDelta("serve.retries", retries_before, 2);
  EXPECT_EQ(fault.fire_count(), 2);
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kClosed);
}

TEST_F(ServeTest, TransientTokenizeFaultRetriesThenSucceeds) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  util::ScopedFault fault(util::kFaultServeTokenizeFail, 0, 1);
  Response response = server.ServeSync(NextHopRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.retries, 1);
  EXPECT_EQ(fault.fire_count(), 1);
}

TEST_F(ServeTest, ExhaustedRetriesOpenBreakerThenDegrade) {
  ServeOptions options = FastOptions();
  options.max_retries = 0;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_ms = 60000;  // Stays open for the whole test.
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t failures_before = CounterValue("serve.failures");
  const uint64_t opened_before = CounterValue("serve.breaker.opened");
  const uint64_t degraded_before = CounterValue("serve.degraded.breaker");
  util::ScopedFault fault(util::kFaultServeForwardFail, 0, /*count=*/2);
  for (int i = 0; i < 2; ++i) {
    Response response = server.ServeSync(NextHopRequest());
    EXPECT_EQ(response.status.code(), util::StatusCode::kUnavailable);
    EXPECT_EQ(response.outcome, Outcome::kFailed);
  }
  EXPECT_EQ(fault.fire_count(), 2);
  ExpectCounterDelta("serve.failures", failures_before, 2);
  ExpectCounterDelta("serve.breaker.opened", opened_before, 1);
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kOpen);

  // Breaker open + degradable task: answered by the baseline, marked
  // degraded, status still OK.
  Request request = NextHopRequest();
  Response degraded = server.ServeSync(request);
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.outcome, Outcome::kDegraded);
  EXPECT_TRUE(degraded.degraded);
  ExpectCounterDelta("serve.degraded.breaker", degraded_before, 1);

  BaselinePredictor baseline(dataset_);
  nn::Tensor expected = baseline.NextHopScores(request.trajectory);
  ASSERT_EQ(degraded.output.shape(), expected.shape());
  EXPECT_EQ(degraded.output.data(), expected.data());
}

TEST_F(ServeTest, BreakerRejectsNonDegradableTask) {
  ServeOptions options = FastOptions();
  options.max_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 60000;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  Request request;
  request.task = core::Task::kMostSimilarSearch;  // No baseline fallback.
  request.trajectory = AnyTrajectory();
  {
    util::ScopedFault fault(util::kFaultServeForwardFail, 0, 1);
    EXPECT_EQ(server.ServeSync(request).outcome, Outcome::kFailed);
    EXPECT_EQ(fault.fire_count(), 1);
  }
  const uint64_t rejected_before = CounterValue("serve.breaker.rejected");
  Response response = server.ServeSync(request);
  EXPECT_EQ(response.status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(response.outcome, Outcome::kRejected);
  ExpectCounterDelta("serve.breaker.rejected", rejected_before, 1);
}

TEST_F(ServeTest, HalfOpenProbeClosesBreakerOnSuccess) {
  ServeOptions options = FastOptions();
  options.max_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 0;  // Next admit is already a probe.
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  {
    util::ScopedFault fault(util::kFaultServeForwardFail, 0, 1);
    EXPECT_EQ(server.ServeSync(NextHopRequest()).outcome, Outcome::kFailed);
  }
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kOpen);
  const uint64_t probes_before = CounterValue("serve.breaker.probes");
  Response probe = server.ServeSync(NextHopRequest());
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_FALSE(probe.degraded);
  ExpectCounterDelta("serve.breaker.probes", probes_before, 1);
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kClosed);
}

/// Server whose breakers open on one failure and probe on the next admit,
/// with no retries: each request is exactly one breaker verdict.
ServeOptions HairTriggerBreaker(ServeOptions options) {
  options.queue_capacity = 16;
  options.max_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_ms = 0;
  return options;
}

TEST_F(ServeTest, FailedBatchedProbeSplitsUnderTheSameAdmission) {
  InferenceServer server(dataset_, model_config_,
                         HairTriggerBreaker(FastOptions()), prototype_);
  ASSERT_TRUE(server.Start().ok());
  {
    util::ScopedFault fault(util::kFaultServeForwardFail, 0, 1);
    EXPECT_EQ(server.ServeSync(NextHopRequest()).outcome, Outcome::kFailed);
  }
  ASSERT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kOpen);

  // Park the worker on a classification decoy so four next-hop requests
  // queue behind it and dispatch as one batch, admitted as the probe.
  util::ScopedFault hold(util::kFaultServeWorkerHold, 0, 1, /*param=*/1);
  Request decoy;
  decoy.task = core::Task::kTrajClassification;
  decoy.trajectory = AnyTrajectory();
  std::future<Response> parked = server.Submit(decoy);
  while (hold.fire_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.Submit(NextHopRequest()));
  }
  // The decoy's attempt passes the site once; the batched attempt fails.
  util::ScopedFault fail(util::kFaultServeForwardFail, /*skip=*/1,
                         /*count=*/1);
  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);
  ASSERT_TRUE(parked.get().status.ok());

  // Every member retried alone under the batch's probe admission: served
  // by the model, not parked on the baseline behind a second Admit.
  for (auto& future : futures) {
    Response response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.batch_size, 4);
  }
  EXPECT_EQ(fail.fire_count(), 1);
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kClosed);
  for (int i = 0; i < 20; ++i) {
    Response response = server.ServeSync(NextHopRequest());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.degraded);
  }
}

TEST_F(ServeTest, QuarantinedProbeReturnsTheProbe) {
  InferenceServer server(dataset_, model_config_,
                         HairTriggerBreaker(FastOptions()), prototype_);
  ASSERT_TRUE(server.Start().ok());
  Request recovery;
  recovery.task = core::Task::kTrajRecovery;
  recovery.trajectory = AnyTrajectory();
  if (recovery.trajectory.length() > 10) {
    recovery.trajectory.points.resize(10);
  }
  const int length = recovery.trajectory.length();
  recovery.kept = {0, 2, length - 1};
  {
    util::ScopedFault fault(util::kFaultServeForwardFail, 0, 1);
    EXPECT_EQ(server.ServeSync(recovery).outcome, Outcome::kFailed);
  }
  ASSERT_EQ(server.breaker_state(core::Task::kTrajRecovery),
            CircuitBreaker::State::kOpen);

  // The server's validation only counts kept indices; the model's own
  // screening rejects their order, so the probe ends quarantined.
  Request unordered = recovery;
  unordered.kept = {0, 3, 2, length - 1};
  Response quarantined = server.ServeSync(unordered);
  EXPECT_EQ(quarantined.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(quarantined.outcome, Outcome::kQuarantined);

  // The slot came back: the next valid request probes and closes.
  Response probe = server.ServeSync(recovery);
  ASSERT_TRUE(probe.status.ok()) << probe.status.ToString();
  EXPECT_EQ(server.breaker_state(core::Task::kTrajRecovery),
            CircuitBreaker::State::kClosed);
}

TEST_F(ServeTest, NonFiniteProbeReturnsTheProbe) {
  core::BigCityModel poisoned(dataset_, model_config_);
  for (nn::Tensor parameter : poisoned.backbone()->Parameters()) {
    parameter.data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  InferenceServer server(dataset_, model_config_,
                         HairTriggerBreaker(FastOptions()), &poisoned);
  ASSERT_TRUE(server.Start().ok());
  {
    util::ScopedFault fault(util::kFaultServeForwardFail, 0, 1);
    EXPECT_EQ(server.ServeSync(NextHopRequest()).outcome, Outcome::kFailed);
  }
  ASSERT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kOpen);

  // A poisoned output judges the weights, not the task: each probe
  // reports it and returns the slot, so the next request probes the model
  // again instead of staying on the baseline.
  const uint64_t probes_before = CounterValue("serve.breaker.probes");
  for (int i = 0; i < 3; ++i) {
    Response response = server.ServeSync(NextHopRequest());
    EXPECT_EQ(response.status.code(), util::StatusCode::kInternal);
    EXPECT_FALSE(response.degraded);
  }
  ExpectCounterDelta("serve.breaker.probes", probes_before, 3);
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kHalfOpen);
}

// --- Graceful degradation on tight budgets ----------------------------------

TEST_F(ServeTest, TightBudgetDegradesToBaseline) {
  ServeOptions options = FastOptions();
  options.degrade_on_tight_budget = true;
  options.latency_min_samples = 4;
  // Seeded p95 far above any real deadline: every deadlined degradable
  // request takes the baseline path.
  options.initial_forward_estimate_us = 1e9;
  options.default_deadline_ms = 200;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.forward_p95_us(), 0);

  const uint64_t degraded_before = CounterValue("serve.degraded.budget");
  Request request;
  request.task = core::Task::kTrafficMultiStep;
  request.segment = 3;
  request.start_slice = 0;
  request.horizon = 2;
  Response response = server.ServeSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.outcome, Outcome::kDegraded);
  EXPECT_TRUE(response.degraded);
  ExpectCounterDelta("serve.degraded.budget", degraded_before, 1);

  BaselinePredictor baseline(dataset_);
  nn::Tensor expected =
      baseline.PredictTraffic(request.segment, request.start_slice,
                              model_config_.traffic_input_steps,
                              request.horizon);
  EXPECT_EQ(response.output.data(), expected.data());

  // A request without any deadline is exempt from budget degradation even
  // with the same inflated p95 estimate.
  ServeOptions no_default = options;
  no_default.default_deadline_ms = 0;
  InferenceServer full_server(dataset_, model_config_, no_default,
                              prototype_);
  ASSERT_TRUE(full_server.Start().ok());
  Response full = full_server.ServeSync(request);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.degraded);
}

// --- Quarantine -------------------------------------------------------------

TEST_F(ServeTest, MalformedRequestsAreQuarantined) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  const uint64_t quarantined_before = CounterValue("serve.quarantined");
  std::vector<Request> corrupt;

  {  // Unknown segment id.
    Request request = NextHopRequest();
    request.trajectory.points[1].segment =
        dataset_->network().num_segments() + 7;
    corrupt.push_back(std::move(request));
  }
  {  // Non-monotone timestamps.
    Request request = NextHopRequest();
    request.trajectory.points[2].timestamp =
        request.trajectory.points[1].timestamp - 100.0;
    corrupt.push_back(std::move(request));
  }
  {  // NaN timestamp.
    Request request = NextHopRequest();
    request.trajectory.points[0].timestamp =
        std::numeric_limits<double>::quiet_NaN();
    corrupt.push_back(std::move(request));
  }
  {  // Traffic window past the end of the series.
    Request request;
    request.task = core::Task::kTrafficOneStep;
    request.segment = 0;
    request.start_slice = dataset_->traffic().num_slices();
    corrupt.push_back(std::move(request));
  }
  {  // Imputation mask outside the window.
    Request request;
    request.task = core::Task::kTrafficImputation;
    request.segment = 0;
    request.window = 8;
    request.masked = {9};
    corrupt.push_back(std::move(request));
  }

  for (size_t i = 0; i < corrupt.size(); ++i) {
    SCOPED_TRACE(i);
    Response response = server.ServeSync(corrupt[i]);
    EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(response.outcome, Outcome::kQuarantined);
    EXPECT_FALSE(response.output.is_valid());
  }
  ExpectCounterDelta("serve.quarantined", quarantined_before,
                      corrupt.size());
  // Quarantine never trips the breaker and never kills the worker.
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kClosed);
  EXPECT_TRUE(server.ServeSync(NextHopRequest()).status.ok());
}

// --- Replica checkpoint reload ----------------------------------------------

TEST_F(ServeTest, ReplicaReloadRetriesTransientFaults) {
  const std::string path =
      ::testing::TempDir() + "/serve_reload_weights.bin";
  ASSERT_TRUE(prototype_->SaveStateToFile(path).ok());

  ServeOptions options = FastOptions();
  options.checkpoint_path = path;
  const uint64_t retries_before = CounterValue("serve.reload.retries");
  {
    util::ScopedFault fault(util::kFaultServeReloadFail, 0, 1);
    InferenceServer server(dataset_, model_config_, options);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(fault.fire_count(), 1);
    ExpectCounterDeltaAtLeast("serve.reload.retries", retries_before, 1);
    // The reloaded model serves results identical to the prototype.
    Request request = NextHopRequest();
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok());
    prototype_->BeginStep();
    nn::Tensor expected = prototype_->NextHopLogits(
        prototype_->ClipTrajectory(request.trajectory));
    EXPECT_EQ(response.output.data(), expected.data());
  }
  {
    // Persistent reload failure exhausts retries and fails Start().
    util::ScopedFault fault(util::kFaultServeReloadFail, 0, 100);
    InferenceServer server(dataset_, model_config_, options);
    util::Status status = server.Start();
    EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
    EXPECT_GT(fault.fire_count(), 1);
  }
  std::remove(path.c_str());
}

// --- Concurrency ------------------------------------------------------------

TEST_F(ServeTest, ConcurrentMixedLoadStress) {
  ServeOptions options = FastOptions();
  options.num_workers = 4;
  options.queue_capacity = 64;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::atomic<int> ok{0}, degraded{0}, shed{0}, deadline{0}, quarantined{0},
      other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Response>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        Request request;
        switch ((c + i) % 4) {
          case 0:  // Valid trajectory task.
            request = NextHopRequest();
            break;
          case 1:  // Valid traffic task.
            request.task = core::Task::kTrafficOneStep;
            request.segment = (c * kPerClient + i) %
                              dataset_->network().num_segments();
            break;
          case 2:  // Corrupt: unknown segment.
            request = NextHopRequest();
            request.trajectory.points[0].segment = -5;
            break;
          case 3:  // Deadline-doomed.
            request = NextHopRequest();
            request.deadline_ms = 1e-6;
            break;
        }
        futures.push_back(server.Submit(std::move(request)));
      }
      for (auto& future : futures) {
        Response response = future.get();
        switch (response.outcome) {
          case Outcome::kOk: ++ok; break;
          case Outcome::kDegraded: ++degraded; break;
          case Outcome::kShed: ++shed; break;
          case Outcome::kDeadline: ++deadline; break;
          case Outcome::kQuarantined: ++quarantined; break;
          default: ++other; break;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  server.Stop();

  EXPECT_EQ(ok + degraded + shed + deadline + quarantined + other,
            kClients * kPerClient);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(quarantined, kClients * kPerClient / 4);
  EXPECT_EQ(deadline, kClients * kPerClient / 4);
  EXPECT_GT(ok.load(), 0);
}

// --- Request tracing and stage breakdown ------------------------------------

TEST_F(ServeTest, ResponsesEchoTraceIdAndStageBreakdown) {
  InferenceServer server(dataset_, model_config_, FastOptions(), prototype_);
  ASSERT_TRUE(server.Start().ok());

  uint64_t previous_id = 0;
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    Response response = server.ServeSync(NextHopRequest());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // Correlation ids are allocated in every build flavor (the id is part
    // of the response contract, not an obs probe): nonzero and distinct.
    EXPECT_NE(response.trace_id, 0u);
    EXPECT_NE(response.trace_id, previous_id);
    previous_id = response.trace_id;

    // The per-stage clocks partition the same wall interval total_us
    // measures; allow 10% skew plus a floor for scheduler noise between
    // the boundary clock reads.
    EXPECT_GT(response.stages.forward_us, 0.0);
    EXPECT_GE(response.stages.queue_wait_us, 0.0);
    EXPECT_GE(response.stages.batch_wait_us, 0.0);
    EXPECT_GE(response.stages.validate_us, 0.0);
    EXPECT_GE(response.stages.tokenize_us, 0.0);
    EXPECT_GE(response.stages.retry_us, 0.0);
    EXPECT_NEAR(response.stages.Total(), response.total_us,
                std::max(0.10 * response.total_us, 500.0));
  }

  // Failure paths carry the id too: a shed response is still correlatable.
  server.Stop();
  Response shed = server.ServeSync(NextHopRequest());
  EXPECT_EQ(shed.outcome, Outcome::kShed);
  EXPECT_NE(shed.trace_id, 0u);
}

#if BIGCITY_OBS

TEST_F(ServeTest, BatchedRequestFlowsConnectAcrossThreads) {
  auto& buffer = obs::TraceBuffer::Global();
  buffer.SetCapacity(size_t{1} << 18);  // Also clears earlier events.
  obs::SetTracingEnabled(true);

  ServeOptions options = FastOptions();
  options.queue_capacity = 16;
  options.batch_max = 4;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  // Park the single worker on its hold site so the follow-up requests
  // pile up behind it and dispatch as one coalesced batch.
  util::ScopedFault hold(util::kFaultServeWorkerHold, 0, 1, /*param=*/1);
  std::vector<std::future<Response>> futures;
  futures.push_back(server.Submit(NextHopRequest()));
  while (hold.fire_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(NextHopRequest()));
  }
  util::FaultInjection::Disarm(util::kFaultServeWorkerHold);

  std::vector<Response> responses;
  for (auto& future : futures) responses.push_back(future.get());
  server.Stop();
  obs::SetTracingEnabled(false);

  int batched = 0;
  for (const Response& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (response.batch_size > 1) ++batched;
  }
  ASSERT_GT(batched, 0) << "worker hold failed to coalesce a batch";

  const std::vector<obs::TraceEvent> events = buffer.Events();
  ASSERT_EQ(buffer.dropped(), 0u) << "ring too small for this test";
  auto enclosed_by_span = [&events](const obs::TraceEvent& flow) {
    return std::any_of(
        events.begin(), events.end(), [&flow](const obs::TraceEvent& e) {
          return e.phase == 'X' && e.thread_id == flow.thread_id &&
                 e.start_us <= flow.start_us &&
                 flow.start_us <= e.start_us + e.duration_us;
        });
  };
  for (const Response& response : responses) {
    SCOPED_TRACE(response.trace_id);
    // One connected flow: start at submit, step where the dequeue's
    // forward picked the request up (the decoy is a batch of one), finish
    // at response delivery — spanning at least the client thread and a
    // worker thread.
    bool start = false, step = false, finish = false;
    std::set<uint32_t> threads;
    for (const obs::TraceEvent& event : events) {
      if (event.trace_id != response.trace_id) continue;
      if (event.phase == 's') start = true;
      if (event.phase == 't') step = true;
      if (event.phase == 'f') finish = true;
      if (event.phase != 'X') {
        threads.insert(event.thread_id);
        // chrome attaches each flow marker to the slice enclosing its
        // timestamp on that thread; an unenclosed marker renders as a
        // dangling arrow.
        EXPECT_TRUE(enclosed_by_span(event));
      }
    }
    EXPECT_TRUE(start);
    EXPECT_TRUE(step);
    EXPECT_TRUE(finish);
    EXPECT_GE(threads.size(), 2u);
  }
  // The shared batch forward span exists and carries no single request's
  // id (members are linked to it by their 't' markers instead).
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const obs::TraceEvent& e) {
                            return e.phase == 'X' &&
                                   std::string(e.name) ==
                                       "serve.process_batch";
                          }));
  buffer.SetCapacity(1 << 16);  // Restore the default footprint.
}

#endif  // BIGCITY_OBS

TEST_F(ServeTest, StopDrainsQueuedRequests) {
  ServeOptions options = FastOptions();
  options.queue_capacity = 16;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.Submit(NextHopRequest()));
  server.Stop();  // Drain-then-stop: every future must be resolved.
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
}

}  // namespace
}  // namespace bigcity::serve
