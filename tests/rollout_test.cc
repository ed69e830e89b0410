// Model-lifecycle tests (DESIGN.md §4.12): the versioned publication
// protocol, the registry's validation/quarantine behavior, and the
// server's hot-swap / canary / rollback machinery.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "nn/tensor.h"
#include "scratch_dir.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/rollout.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "util/model_dir.h"

namespace bigcity::serve {
namespace {

/// Fresh (empty) model directory under this process's scratch directory.
std::string MakeModelDir(const std::string& name) {
  const std::string path =
      (testing_util::ProcessScratchDir("bigcity_rollout_") / name).string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// Flips one byte in `path` (post-manifest corruption / bit rot).
void CorruptFile(const std::string& path, size_t offset) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

class RolloutTest : public ::testing::Test {
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

  static Request NextHopRequest() {
    Request request;
    request.task = core::Task::kNextHop;
    request.trajectory = AnyTrajectory();
    return request;
  }

  /// Same architecture, different init seed: passes the fingerprint check
  /// but carries distinguishable weights.
  static core::BigCityModel MakeVariantModel(uint64_t seed) {
    core::BigCityConfig config = model_config_;
    config.seed = seed;
    return core::BigCityModel(dataset_, config);
  }

  /// Poisons every backbone parameter with one NaN: passes file CRC,
  /// fails the canary health gate on non-finite outputs.
  static void PoisonModel(core::BigCityModel* model) {
    for (nn::Tensor parameter : model->backbone()->Parameters()) {
      parameter.data()[0] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  /// Rollout knobs tuned for test latency: fast polls, tiny canary
  /// window, generous (but bounded) gate deadline.
  static ServeOptions RolloutOptionsFor(const std::string& dir,
                                        int num_workers = 2) {
    ServeOptions options;
    options.num_workers = num_workers;
    options.queue_capacity = 16;
    options.retry_backoff_ms = 0.1;
    options.rollout.model_dir = dir;
    options.rollout.poll_interval_ms = 5;
    options.rollout.canary_min_requests = 3;
    options.rollout.canary_timeout_ms = 8000;
    return options;
  }

  /// Fails a promotion loop as soon as the candidate is rolled back,
  /// naming the gate's reason, instead of letting it spin to its deadline.
  static ::testing::AssertionResult NotQuarantined(InferenceServer& server,
                                                   uint64_t version) {
    if (!server.registry()->IsQuarantined(version)) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "version " << version << " quarantined: "
           << server.registry()->Quarantined().at(version)
           << " (rollout state " << RolloutStateName(server.rollout_state())
           << ")";
  }

  static data::CityDataset* dataset_;
  static core::BigCityConfig model_config_;
  static core::BigCityModel* prototype_;
};

data::CityDataset* RolloutTest::dataset_ = nullptr;
core::BigCityConfig RolloutTest::model_config_;
core::BigCityModel* RolloutTest::prototype_ = nullptr;

// --- Publication protocol ---------------------------------------------------

TEST_F(RolloutTest, VersionDirNameRoundTrip) {
  EXPECT_EQ(util::VersionDirName(7), "v000007");
  uint64_t version = 0;
  EXPECT_TRUE(util::ParseVersionDirName("v000123", &version));
  EXPECT_EQ(version, 123u);
  EXPECT_FALSE(util::ParseVersionDirName("CURRENT", &version));
  EXPECT_FALSE(util::ParseVersionDirName("v00012x", &version));
  EXPECT_FALSE(util::ParseVersionDirName("", &version));
}

TEST_F(RolloutTest, CurrentPointerRoundTrip) {
  const std::string dir = MakeModelDir("current");
  EXPECT_EQ(util::ReadCurrent(dir).status().code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(util::PublishCurrent(dir, 1).ok());
  ASSERT_TRUE(util::ReadCurrent(dir).ok());
  EXPECT_EQ(util::ReadCurrent(dir).value(), 1u);
  ASSERT_TRUE(util::PublishCurrent(dir, 42).ok());
  EXPECT_EQ(util::ReadCurrent(dir).value(), 42u);
}

TEST_F(RolloutTest, TornPointerWriteInvisibleToReaders) {
  const std::string dir = MakeModelDir("torn");
  ASSERT_TRUE(util::PublishCurrent(dir, 1).ok());
  {
    util::ScopedFault torn(util::kFaultPublishTornPointer, 0, 1, 2);
    EXPECT_FALSE(util::PublishCurrent(dir, 2).ok());
    EXPECT_EQ(torn.fire_count(), 1);
  }
  // The torn update never became visible: readers still see version 1.
  ASSERT_TRUE(util::ReadCurrent(dir).ok());
  EXPECT_EQ(util::ReadCurrent(dir).value(), 1u);
  // And a torn *first* publish leaves the directory unpublished.
  const std::string fresh = MakeModelDir("torn_fresh");
  {
    util::ScopedFault torn(util::kFaultPublishTornPointer, 0, 1, 1);
    EXPECT_FALSE(util::PublishCurrent(fresh, 1).ok());
  }
  EXPECT_EQ(util::ReadCurrent(fresh).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(RolloutTest, ManifestRoundTrip) {
  const std::string dir = MakeModelDir("manifest");
  const std::string version_dir = util::VersionPath(dir, 3);
  ASSERT_TRUE(util::EnsureDirectory(version_dir).ok());
  util::VersionManifest manifest;
  manifest.version = 3;
  manifest.parent_version = 2;
  manifest.config_fingerprint = "cfg-deadbeef";
  manifest.weight_bytes = 1234;
  manifest.weight_crc = 0xCAFEF00D;
  ASSERT_TRUE(util::WriteManifest(version_dir, manifest).ok());
  auto read = util::ReadManifest(version_dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().version, 3u);
  EXPECT_EQ(read.value().parent_version, 2);
  EXPECT_EQ(read.value().config_fingerprint, "cfg-deadbeef");
  EXPECT_EQ(read.value().weight_bytes, 1234u);
  EXPECT_EQ(read.value().weight_crc, 0xCAFEF00Du);
}

// --- Registry validation & quarantine ---------------------------------------

TEST_F(RolloutTest, PublishedVersionValidates) {
  const std::string dir = MakeModelDir("publish_ok");
  auto published = PublishModel(dir, *prototype_);
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.value(), 1u);

  ModelRegistry registry(dir, core::ConfigFingerprint(model_config_));
  auto candidate = registry.PollOnce(0);
  ASSERT_TRUE(candidate.ok());
  EXPECT_EQ(candidate.value().version, 1u);
  EXPECT_EQ(candidate.value().manifest.parent_version, -1);
  EXPECT_EQ(candidate.value().manifest.config_fingerprint,
            core::ConfigFingerprint(model_config_));
  // Nothing newer than what we already serve.
  EXPECT_EQ(registry.PollOnce(1).status().code(),
            util::StatusCode::kNotFound);

  // Sequential publication numbers versions monotonically.
  auto second = PublishModel(dir, *prototype_, /*parent_version=*/1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2u);
  auto next = registry.PollOnce(1);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().manifest.parent_version, 1);
}

TEST_F(RolloutTest, CorruptWeightsQuarantined) {
  const std::string dir = MakeModelDir("corrupt");
  ASSERT_TRUE(PublishModel(dir, *prototype_).ok());
  CorruptFile(util::WeightsPath(util::VersionPath(dir, 1)), 100);

  ModelRegistry registry(dir, core::ConfigFingerprint(model_config_));
  // Bad candidate must look exactly like no candidate.
  EXPECT_EQ(registry.PollOnce(0).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(registry.IsQuarantined(1));
  const auto quarantined = registry.Quarantined();
  ASSERT_EQ(quarantined.count(1), 1u);
  EXPECT_NE(quarantined.at(1).find("does not match manifest"),
            std::string::npos);
  // Repolls stay quiet; no revalidation churn.
  EXPECT_EQ(registry.PollOnce(0).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(RolloutTest, FingerprintMismatchQuarantined) {
  const std::string dir = MakeModelDir("fingerprint");
  ASSERT_TRUE(
      PublishModelWithFingerprint(dir, *prototype_, "cfg-0bad0bad").ok());
  ModelRegistry registry(dir, core::ConfigFingerprint(model_config_));
  EXPECT_EQ(registry.PollOnce(0).status().code(),
            util::StatusCode::kNotFound);
  ASSERT_TRUE(registry.IsQuarantined(1));
  EXPECT_NE(registry.Quarantined().at(1).find("fingerprint"),
            std::string::npos);
}

TEST_F(RolloutTest, QuarantineMarkerSurvivesRestart) {
  const std::string dir = MakeModelDir("marker");
  ASSERT_TRUE(PublishModel(dir, *prototype_).ok());
  CorruptFile(util::WeightsPath(util::VersionPath(dir, 1)), 64);
  {
    ModelRegistry registry(dir, core::ConfigFingerprint(model_config_));
    EXPECT_FALSE(registry.PollOnce(0).ok());
    EXPECT_TRUE(registry.IsQuarantined(1));
  }
  // A fresh registry (process restart) adopts the persisted marker
  // without re-running validation.
  ModelRegistry restarted(dir, core::ConfigFingerprint(model_config_));
  EXPECT_EQ(restarted.PollOnce(0).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(restarted.IsQuarantined(1));
}

// --- Health gate (pure decision function) -----------------------------------

TEST_F(RolloutTest, GateNotReadyBelowMinRequests) {
  RolloutOptions options;
  options.canary_min_requests = 8;
  CohortStats::Snapshot stable;
  CohortStats::Snapshot canary;
  canary.requests = 7;
  EXPECT_EQ(EvaluateCanary(stable, canary, options, nullptr),
            GateVerdict::kNotReady);
  canary.requests = 8;
  EXPECT_EQ(EvaluateCanary(stable, canary, options, nullptr),
            GateVerdict::kPass);
}

TEST_F(RolloutTest, GateFailsOnNonFiniteImmediately) {
  RolloutOptions options;
  options.canary_min_requests = 100;  // Irrelevant: NaN short-circuits.
  CohortStats::Snapshot stable;
  CohortStats::Snapshot canary;
  canary.requests = 1;
  canary.nonfinite = 1;
  std::string reason;
  EXPECT_EQ(EvaluateCanary(stable, canary, options, &reason),
            GateVerdict::kFail);
  EXPECT_NE(reason.find("non-finite"), std::string::npos);
}

TEST_F(RolloutTest, GateFailsOnErrorRate) {
  RolloutOptions options;
  options.canary_min_requests = 10;
  options.canary_error_margin = 0.05;
  CohortStats::Snapshot stable;
  stable.requests = 100;
  stable.failures = 1;
  CohortStats::Snapshot canary;
  canary.requests = 10;
  canary.failures = 3;
  std::string reason;
  EXPECT_EQ(EvaluateCanary(stable, canary, options, &reason),
            GateVerdict::kFail);
  EXPECT_NE(reason.find("error rate"), std::string::npos);
}

TEST_F(RolloutTest, GateFailsOnLatencyInflation) {
  RolloutOptions options;
  options.canary_min_requests = 4;
  options.canary_latency_inflation = 3.0;
  CohortStats stable;
  CohortStats canary;
  for (int i = 0; i < 20; ++i) stable.RecordSuccess(100);
  for (int i = 0; i < 20; ++i) canary.RecordSuccess(1000);
  // The p95 of 20 samples is their maximum: the gate waits until both
  // cohorts hold kMinLatencySamples.
  EXPECT_EQ(EvaluateCanary(stable.Get(), canary.Get(), options, nullptr),
            GateVerdict::kNotReady);
  canary.RecordSuccess(1000);
  EXPECT_EQ(EvaluateCanary(stable.Get(), canary.Get(), options, nullptr),
            GateVerdict::kNotReady);
  stable.RecordSuccess(100);
  ASSERT_EQ(stable.Get().latency_samples, kMinLatencySamples);
  std::string reason;
  EXPECT_EQ(EvaluateCanary(stable.Get(), canary.Get(), options, &reason),
            GateVerdict::kFail);
  EXPECT_NE(reason.find("p95"), std::string::npos);
  // Without stable samples the latency criterion is mute (no baseline).
  CohortStats empty_stable;
  EXPECT_EQ(
      EvaluateCanary(empty_stable.Get(), canary.Get(), options, nullptr),
      GateVerdict::kPass);
}

TEST_F(RolloutTest, GateFailsOnSloBurnRate) {
  RolloutOptions options;
  options.canary_min_requests = 4;
  options.canary_max_burn_rate = 2.0;
  CohortStats::Snapshot stable;
  CohortStats::Snapshot canary;
  canary.requests = 8;
  // At or under the ceiling: the serving SLOs are healthy, canary passes.
  EXPECT_EQ(EvaluateCanary(stable, canary, options, nullptr, /*slo_burn_rate=*/2.0),
            GateVerdict::kPass);
  std::string reason;
  EXPECT_EQ(EvaluateCanary(stable, canary, options, &reason,
                           /*slo_burn_rate=*/2.5),
            GateVerdict::kFail);
  EXPECT_NE(reason.find("burn rate"), std::string::npos);
  // Default options leave the criterion disabled: any burn passes.
  RolloutOptions no_gate;
  no_gate.canary_min_requests = 4;
  EXPECT_EQ(EvaluateCanary(stable, canary, no_gate, nullptr,
                           /*slo_burn_rate=*/1e9),
            GateVerdict::kPass);
}

// --- Config fingerprint -----------------------------------------------------

TEST_F(RolloutTest, ConfigFingerprintCoversArchitectureOnly) {
  const std::string base = core::ConfigFingerprint(model_config_);
  EXPECT_EQ(base, core::ConfigFingerprint(model_config_));

  core::BigCityConfig wider = model_config_;
  wider.d_model = 64;
  EXPECT_NE(base, core::ConfigFingerprint(wider));

  // Runtime-only knobs must not change weight compatibility.
  core::BigCityConfig retuned = model_config_;
  retuned.seed = 999;
  retuned.threads = 7;
  EXPECT_EQ(base, core::ConfigFingerprint(retuned));
}

// --- Server lifecycle -------------------------------------------------------

TEST_F(RolloutTest, ServerBootsFromPublishedVersion) {
  const std::string dir = MakeModelDir("boot");
  core::BigCityModel published = MakeVariantModel(7);
  ASSERT_TRUE(PublishModel(dir, published).ok());

  InferenceServer server(dataset_, model_config_, RolloutOptionsFor(dir, 1));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.stable_version(), 1u);

  Request request = NextHopRequest();
  Response response = server.ServeSync(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.model_version, 1u);
  // Bit-identical to calling the published weights directly.
  auto direct = published.TryNextHopLogits(request.trajectory);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.output.data(), direct.value().data());
  server.Stop();
}

TEST_F(RolloutTest, HotSwapPromotesHealthyVersion) {
  const std::string dir = MakeModelDir("hotswap");
  ServeOptions options = RolloutOptionsFor(dir);
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.stable_version(), 0u);
  EXPECT_EQ(server.rollout_state(), RolloutState::kIdle);

  Request request = NextHopRequest();
  const Response before = server.ServeSync(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.model_version, 0u);

  // Staging builds the candidate's whole ST feature library once; no
  // request fills a slice.
  const uint64_t fills_before = CounterValue("serve.cache.tokenizer.miss");
  core::BigCityModel next = MakeVariantModel(123);
  ASSERT_TRUE(PublishModel(dir, next).ok());

  // Keep traffic flowing so the canary can accumulate evidence. A healthy
  // swap must not fail a single request.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stable_version() != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "rollout did not complete";
    ASSERT_TRUE(NotQuarantined(server, 1));
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok()) << response.status.message();
  }
  ASSERT_TRUE(server.WaitForRolloutState(RolloutState::kStable, 2000));
  EXPECT_EQ(server.generation(), 1u);
#if BIGCITY_OBS
  EXPECT_EQ(CounterValue("serve.cache.tokenizer.miss") - fills_before,
            static_cast<uint64_t>(
                obs::MetricsRegistry::Global()
                    .GetGauge("core.st_library.slices")
                    ->Value()));
#else
  (void)fills_before;
#endif

  Response after = server.ServeSync(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.model_version, 1u);
  // New weights actually serve: outputs changed.
  EXPECT_NE(after.output.data(), before.output.data());
  auto direct = next.TryNextHopLogits(request.trajectory);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(after.output.data(), direct.value().data());
  server.Stop();
}

TEST_F(RolloutTest, CanaryTakesEveryNumWorkersthDequeue) {
  const std::string dir = MakeModelDir("canary_share");
  ServeOptions options = RolloutOptionsFor(dir, /*num_workers=*/2);
  // Keep the candidate on trial for the whole test.
  options.rollout.canary_min_requests = 1 << 20;
  options.rollout.canary_timeout_ms = 60000;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(PublishModel(dir, MakeVariantModel(17)).ok());
  ASSERT_TRUE(server.WaitForRolloutState(RolloutState::kCanary, 10000));

  // Sequential requests are one dequeue each: the canary takes the first
  // and every second one after it.
  Request request = NextHopRequest();
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.model_version, i % 2 == 0 ? 1u : 0u);
  }
  EXPECT_EQ(server.rollout_state(), RolloutState::kCanary);
  // Shutdown mid-canary leaves the stable version in place.
  server.Stop();
  EXPECT_EQ(server.stable_version(), 0u);
  EXPECT_EQ(server.rollout_state(), RolloutState::kIdle);
}

TEST_F(RolloutTest, NanCanaryRollsBackBitIdentical) {
  const std::string dir = MakeModelDir("nan_canary");
  InferenceServer server(dataset_, model_config_, RolloutOptionsFor(dir),
                         prototype_);
  ASSERT_TRUE(server.Start().ok());

  Request request = NextHopRequest();
  const Response before = server.ServeSync(request);
  ASSERT_TRUE(before.status.ok());

  core::BigCityModel poisoned = MakeVariantModel(55);
  PoisonModel(&poisoned);
  ASSERT_TRUE(PublishModel(dir, poisoned).ok());

  // Drive traffic; canary requests fail with kInternal (never a crash,
  // never retried into the breaker) until the gate trips.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.rollout_state() != RolloutState::kRolledBack) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "rollback did not happen";
    Response response = server.ServeSync(request);
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), util::StatusCode::kInternal);
    }
  }

  // Stable version pinned, candidate quarantined with the gate's reason.
  EXPECT_EQ(server.stable_version(), 0u);
  EXPECT_EQ(server.generation(), 0u);
  ASSERT_NE(server.registry(), nullptr);
  ASSERT_TRUE(server.registry()->IsQuarantined(1));
  EXPECT_NE(server.registry()->Quarantined().at(1).find("non-finite"),
            std::string::npos);

  // Post-rollback outputs are bit-identical to pre-push stable outputs.
  for (int i = 0; i < 5; ++i) {
    Response after = server.ServeSync(request);
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(after.model_version, 0u);
    EXPECT_EQ(after.output.data(), before.output.data());
  }
  // The breaker never saw the NaN failures (model health is the rollout
  // gate's job, not the breaker's).
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kClosed);
  server.Stop();
}

TEST_F(RolloutTest, StarvedCanaryRollsBack) {
  const std::string dir = MakeModelDir("starved");
  ServeOptions options = RolloutOptionsFor(dir);
  options.rollout.canary_timeout_ms = 150;
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(PublishModel(dir, *prototype_).ok());
  // No traffic at all: the gate must refuse to promote without evidence.
  ASSERT_TRUE(server.WaitForRolloutState(RolloutState::kRolledBack, 10000));
  EXPECT_EQ(server.stable_version(), 0u);
  ASSERT_TRUE(server.registry()->IsQuarantined(1));
  EXPECT_NE(server.registry()->Quarantined().at(1).find("starved"),
            std::string::npos);
  server.Stop();
}

TEST_F(RolloutTest, InflatedCanaryLatencyRollsBack) {
  const std::string dir = MakeModelDir("latency");
  InferenceServer server(dataset_, model_config_, RolloutOptionsFor(dir),
                         prototype_);
  ASSERT_TRUE(server.Start().ok());

  // Every canary forward reports +5s; the stable cohort keeps honest
  // timings, so the p95 comparison must trip.
  util::FaultInjection::Arm(util::kFaultRolloutCanaryLatency, 0, 1 << 20,
                            5'000'000);
  ASSERT_TRUE(PublishModel(dir, MakeVariantModel(9)).ok());

  Request request = NextHopRequest();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.rollout_state() != RolloutState::kRolledBack) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "latency gate did not trip";
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok());
  }
  EXPECT_EQ(server.stable_version(), 0u);
  ASSERT_TRUE(server.registry()->IsQuarantined(1));
  EXPECT_NE(server.registry()->Quarantined().at(1).find("p95"),
            std::string::npos);
  server.Stop();
}

TEST_F(RolloutTest, OneWorkerPromotesWithStableForwardInFlight) {
  // With one worker every dequeue after the canary starts is the
  // canary's, so the stable cohort only ever holds forwards picked before
  // it. One such forward finishing after the cohorts restart must not
  // hold the latency criterion's sample floor until the canary starves.
  const std::string dir = MakeModelDir("one_worker");
  ServeOptions options = RolloutOptionsFor(dir, /*num_workers=*/1);
  options.hang_threshold_ms = 60000;  // The held forward is no hang.
  InferenceServer server(dataset_, model_config_, options, prototype_);
  ASSERT_TRUE(server.Start().ok());

  Request request = NextHopRequest();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  util::FaultInjection::Arm(util::kFaultServeWorkerStall, 0, 1, 60000);
  std::future<Response> held = server.Submit(request);
  while (util::FaultInjection::FireCount(util::kFaultServeWorkerStall) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(PublishModel(dir, MakeVariantModel(41)).ok());
  ASSERT_TRUE(server.WaitForRolloutState(RolloutState::kCanary, 10000));
  util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
  const Response stray = held.get();
  ASSERT_TRUE(stray.status.ok()) << stray.status.ToString();
  EXPECT_EQ(stray.model_version, 0u);

  while (server.rollout_state() == RolloutState::kCanary) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the canary was never judged";
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.model_version, 1u);
  }
  ASSERT_TRUE(server.WaitForRolloutState(RolloutState::kStable, 2000))
      << (server.registry()->IsQuarantined(1)
              ? server.registry()->Quarantined().at(1)
              : std::string("not quarantined"));
  EXPECT_EQ(server.stable_version(), 1u);
  server.Stop();
}

TEST_F(RolloutTest, SlowStagedLoadDoesNotBlockServing) {
  const std::string dir = MakeModelDir("slowload");
  InferenceServer server(dataset_, model_config_, RolloutOptionsFor(dir),
                         prototype_);
  ASSERT_TRUE(server.Start().ok());

  util::FaultInjection::Arm(util::kFaultRolloutSlowLoad, 0, 1, 400);
  ASSERT_TRUE(PublishModel(dir, MakeVariantModel(31)).ok());

  // While the controller is stuck loading, the stable fleet keeps
  // serving at full health.
  Request request = NextHopRequest();
  const auto hold_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  int served = 0;
  while (std::chrono::steady_clock::now() < hold_until) {
    Response response = server.ServeSync(request);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.model_version, 0u);
    ++served;
  }
  EXPECT_GT(served, 0);

  // And the rollout still completes afterwards.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stable_version() != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    ASSERT_TRUE(NotQuarantined(server, 1));
    ASSERT_TRUE(server.ServeSync(request).status.ok());
  }
  server.Stop();
}

TEST_F(RolloutTest, NonFiniteOutputIsDefiniteInternalError) {
  // No rollout machinery at all: the non-finite guard protects every
  // serving configuration.
  core::BigCityModel poisoned = MakeVariantModel(77);
  PoisonModel(&poisoned);
  ServeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 8;
  InferenceServer server(dataset_, model_config_, options, &poisoned);
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 8; ++i) {
    Response response = server.ServeSync(NextHopRequest());
    EXPECT_EQ(response.status.code(), util::StatusCode::kInternal);
    EXPECT_EQ(response.outcome, Outcome::kFailed);
    EXPECT_EQ(response.retries, 0);  // Deterministic poison: no retry.
  }
  // NaN outputs do not feed the breaker.
  EXPECT_EQ(server.breaker_state(core::Task::kNextHop),
            CircuitBreaker::State::kClosed);
  server.Stop();
}

}  // namespace
}  // namespace bigcity::serve
