// Chaos/soak harness for the model lifecycle (DESIGN.md §4.12) and the
// self-healing runtime (DESIGN.md §4.16).
//
// Sustains a mixed-task request load against an InferenceServer while a
// deterministic schedule publishes good, corrupt-CRC, config-mismatched,
// and NaN-weight model versions and fires the lifecycle fault sites
// (torn CURRENT-pointer write, slow staged load, canary latency
// inflation), plus the self-healing sites: a wedged-worker stall that the
// watchdog must reap, and a memory leak that must drive the overload
// controller into shedding and back. Invariants checked throughout:
//
//   1. zero crashes — the process reaching its summary is the invariant;
//   2. every request terminates with a definite Status (no broken
//      promises, no hangs);
//   3. request error rate stays bounded during swaps: a healthy swap
//      fails nothing, a poisoned canary fails at most a canary window of
//      requests with kInternal before rollback;
//   4. bad versions are quarantined while the server keeps serving;
//   5. after an automatic rollback, responses are bit-identical to the
//      pre-push stable model's;
//   6. no permanent throughput loss after a hang: once the watchdog reaps
//      a wedged worker and spins up its replacement, a post-reap window
//      must recover to within 10% of the pre-hang baseline;
//   7. peak sampled memory stays under the configured budget — admission
//      shedding kicks in before the injected leak can blow through it,
//      and recovery after FreeLeaks() is monotone back to normal.
//
// Exit code 0 iff every invariant held. --json writes a machine-readable
// report (counts, per-event results, violations, metrics snapshot) for
// CI validation.
//
//   chaos_soak --seconds 30 --seed 7 [--workers 3] [--load-threads 3]
//              [--model-dir PATH] [--json PATH]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/bigcity_model.h"
#include "data/dataset.h"
#include "nn/tensor.h"
#include "obs/obs.h"
#include "serve/model_registry.h"
#include "serve/overload.h"
#include "serve/rollout.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "util/model_dir.h"

namespace bigcity {
namespace {

using Clock = std::chrono::steady_clock;

struct SoakOptions {
  double seconds = 30;
  uint64_t seed = 7;
  int workers = 3;
  int load_threads = 3;
  std::string model_dir;
  std::string json_out;
};

bool ParseArgs(int argc, char** argv, SoakOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--seed") {
      options->seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--workers") {
      options->workers = std::atoi(value.c_str());
    } else if (flag == "--load-threads") {
      options->load_threads = std::atoi(value.c_str());
    } else if (flag == "--model-dir") {
      options->model_dir = value;
    } else if (flag == "--json") {
      options->json_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return options->seconds > 0 && options->workers >= 1 &&
         options->load_threads >= 1;
}

/// Outcome tallies across all load threads (atomics: many writers).
struct LoadStats {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> definite{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> nonfinite_internal{0};
  std::atomic<uint64_t> shed{0};      // kResourceExhausted: overload/queue.
  std::atomic<uint64_t> deadline{0};  // kDeadlineExceeded: reap/stale-drop.
  std::atomic<uint64_t> other_failures{0};
  std::atomic<uint64_t> broken_promises{0};
};

/// Per-event-type tallies, written only by the chaos thread.
struct EventStats {
  int good_swaps = 0;
  int slow_good_swaps = 0;
  int corrupt_published = 0;
  int mismatch_published = 0;
  int nan_rollbacks = 0;
  int latency_rollbacks = 0;
  int torn_publishes = 0;
  int worker_reaps = 0;  // Wedged-worker stall -> watchdog reap+replace.
  int leak_sheds = 0;    // Injected leak -> shedding -> monotone recovery.
};

class ChaosSoak {
 public:
  explicit ChaosSoak(const SoakOptions& options) : options_(options) {
    auto config = data::ScaleConfig(data::XianLikeConfig(), 0.1);
    config.city.grid_width = 5;
    config.city.grid_height = 5;
    dataset_ = std::make_unique<data::CityDataset>(config);
    model_config_.d_model = 32;
    model_config_.num_heads = 2;
    model_config_.num_layers = 1;
    model_config_.spatial_dim = 16;
    model_config_.gat_hidden = 16;
    prototype_ =
        std::make_unique<core::BigCityModel>(dataset_.get(), model_config_);
  }

  int Run();

 private:
  // --- Model publication helpers ----------------------------------------

  core::BigCityModel MakeVariant(uint64_t seed) const {
    core::BigCityConfig config = model_config_;
    config.seed = seed;
    return core::BigCityModel(dataset_.get(), config);
  }

  static void Poison(core::BigCityModel* model) {
    for (nn::Tensor parameter : model->backbone()->Parameters()) {
      parameter.data()[0] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  /// Publishes a version whose weights are corrupted *after* the manifest
  /// CRC was computed, then flips CURRENT to it: the registry must catch
  /// the mismatch and quarantine.
  bool PublishCorrupt(uint64_t* version_out) {
    const core::BigCityModel model = MakeVariant(next_variant_seed_++);
    const std::vector<uint64_t> existing =
        util::ListVersions(options_.model_dir);
    const uint64_t version = existing.empty() ? 1 : existing.back() + 1;
    const std::string version_dir =
        util::VersionPath(options_.model_dir, version);
    if (!util::EnsureDirectory(version_dir).ok()) return false;
    const std::string weights = util::WeightsPath(version_dir);
    if (!model.SaveStateToFile(weights).ok()) return false;
    util::VersionManifest manifest;
    manifest.version = version;
    manifest.config_fingerprint = core::ConfigFingerprint(model_config_);
    if (!util::FileCrc32(weights, &manifest.weight_crc,
                         &manifest.weight_bytes)
             .ok()) {
      return false;
    }
    if (!util::WriteManifest(version_dir, manifest).ok()) return false;
    {
      std::fstream file(weights, std::ios::in | std::ios::out |
                                     std::ios::binary);
      if (!file.good()) return false;
      file.seekg(200);
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5A);
      file.seekp(200);
      file.write(&byte, 1);
    }
    if (!util::PublishCurrent(options_.model_dir, version).ok()) return false;
    *version_out = version;
    return true;
  }

  // --- Invariant helpers -------------------------------------------------

  void Violation(const std::string& what) {
    violations_.push_back(what);
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", what.c_str());
  }

  serve::Request FixedProbeRequest() const {
    serve::Request request;
    request.task = core::Task::kNextHop;
    for (const auto& t : dataset_->test()) {
      if (t.length() >= 5) {
        request.trajectory = t;
        return request;
      }
    }
    request.trajectory = dataset_->test().front();
    return request;
  }

  /// Serves the fixed probe until a successful response from the expected
  /// stable version arrives (canary-phase probes may land on the canary
  /// worker and legitimately fail). Empty tensor on timeout.
  nn::Tensor ProbeStable(uint64_t expected_version, double timeout_ms) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               timeout_ms));
    while (Clock::now() < deadline) {
      serve::Response response = server_->ServeSync(FixedProbeRequest());
      if (response.status.ok() &&
          response.model_version == expected_version) {
        return response.output;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return nn::Tensor();
  }

  bool WaitQuarantined(uint64_t version, double timeout_ms) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               timeout_ms));
    while (Clock::now() < deadline) {
      if (server_->registry()->IsQuarantined(version)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  bool WaitUntil(const std::function<bool()>& pred, double timeout_ms) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               timeout_ms));
    while (Clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  }

  /// Successful-responses-per-second over one `window_ms` observation
  /// window of the background load threads.
  double MeasureOkThroughput(double window_ms) {
    const uint64_t before = load_.ok.load(std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(window_ms));
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    const uint64_t after = load_.ok.load(std::memory_order_relaxed);
    return elapsed_s > 0
               ? static_cast<double>(after - before) / elapsed_s
               : 0.0;
  }

  /// SLO telemetry consistency (DESIGN.md §4.15): the tracker's published
  /// window statistics must stay internally coherent through swaps,
  /// rollbacks, and fault injection. Burn-rate *bounds* are deliberately
  /// not asserted — chaos events exist to burn error budget.
  void CheckSloInvariants() {
    const auto snapshots = server_->slo_tracker().SnapshotAll();
#if BIGCITY_OBS
    if (snapshots.empty()) {
      Violation("slo tracker registered no tasks");
    }
#endif
    for (const auto& s : snapshots) {
      if (s.success_rate < 0.0 || s.success_rate > 1.0) {
        Violation("slo " + s.name + ": success_rate outside [0, 1]");
      }
      if (s.p50_us < 0.0 || s.p99_us < s.p50_us) {
        Violation("slo " + s.name + ": p50/p99 ordering broken");
      }
      if (s.window_requests > s.objective.window ||
          s.window_requests > s.total) {
        Violation("slo " + s.name + ": window overfull");
      }
      const double budget = 1.0 - s.objective.success_rate;
      if (budget > 0) {
        const double expected = (1.0 - s.success_rate) / budget;
        if (std::abs(s.burn_rate - expected) >
            1e-6 * std::max(1.0, expected)) {
          Violation("slo " + s.name +
                    ": burn rate inconsistent with window error rate");
        }
      }
      if (s.p99_within_objective != (s.p99_us <= s.objective.p99_us)) {
        Violation("slo " + s.name +
                  ": p99_within_objective contradicts p99_us");
      }
    }
  }

  // --- Load + chaos ------------------------------------------------------

  void LoadLoop(int thread_index);
  void RunEvent(int event_index);
  void WriteJson() const;

  const SoakOptions options_;
  std::unique_ptr<data::CityDataset> dataset_;
  core::BigCityConfig model_config_;
  std::unique_ptr<core::BigCityModel> prototype_;
  std::unique_ptr<serve::InferenceServer> server_;

  LoadStats load_;
  EventStats events_;
  std::vector<std::string> violations_;
  std::atomic<bool> stop_load_{false};
  uint64_t next_variant_seed_ = 1000;
  int64_t mem_budget_bytes_ = 0;
};

void ChaosSoak::LoadLoop(int thread_index) {
  // Deterministic per-thread request mix over all eight task heads.
  std::vector<data::Trajectory> trajectories;
  for (const auto& t : dataset_->test()) {
    if (t.length() >= 5) trajectories.push_back(t);
  }
  if (trajectories.empty()) trajectories = dataset_->test();
  const int num_segments = dataset_->network().num_segments();
  uint64_t i = static_cast<uint64_t>(thread_index) * 7919;

  while (!stop_load_.load(std::memory_order_relaxed)) {
    serve::Request request;
    const data::Trajectory& trajectory =
        trajectories[i % trajectories.size()];
    switch (i % 8) {
      case 0:
        request.task = core::Task::kNextHop;
        request.trajectory = trajectory;
        break;
      case 1:
        request.task = core::Task::kTravelTimeEstimation;
        request.trajectory = trajectory;
        break;
      case 2:
        request.task = core::Task::kTrajClassification;
        request.trajectory = trajectory;
        break;
      case 3:
        request.task = core::Task::kMostSimilarSearch;
        request.trajectory = trajectory;
        break;
      case 4: {
        request.task = core::Task::kTrajRecovery;
        request.trajectory = trajectory;
        const int length = trajectory.length();
        request.kept = {0, length / 2, length - 1};
        break;
      }
      case 5:
        request.task = core::Task::kTrafficOneStep;
        request.segment = static_cast<int>(i) % num_segments;
        request.start_slice = static_cast<int>(i) % 40;
        break;
      case 6:
        request.task = core::Task::kTrafficMultiStep;
        request.segment = static_cast<int>(i) % num_segments;
        request.start_slice = static_cast<int>(i) % 40;
        request.horizon = 4;
        break;
      case 7:
        request.task = core::Task::kTrafficImputation;
        request.segment = static_cast<int>(i) % num_segments;
        request.start_slice = static_cast<int>(i) % 40;
        request.window = 12;
        request.masked = {2, 5, 9};
        break;
    }
    ++i;
    load_.submitted.fetch_add(1, std::memory_order_relaxed);
    try {
      serve::Response response = server_->Submit(std::move(request)).get();
      load_.definite.fetch_add(1, std::memory_order_relaxed);
      if (response.status.ok()) {
        if (response.degraded) {
          load_.degraded.fetch_add(1, std::memory_order_relaxed);
        } else {
          load_.ok.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (response.status.code() == util::StatusCode::kInternal) {
        // Expected (bounded) while a NaN canary is being judged.
        load_.nonfinite_internal.fetch_add(1, std::memory_order_relaxed);
      } else if (response.status.code() ==
                 util::StatusCode::kResourceExhausted) {
        // Expected while the overload controller sheds admissions (or the
        // admission queue is full under a tightened bound).
        load_.shed.fetch_add(1, std::memory_order_relaxed);
      } else if (response.status.code() ==
                 util::StatusCode::kDeadlineExceeded) {
        // Expected (bounded) when the watchdog reaps a wedged worker's
        // in-flight requests or the CoDel sojourn bound drops stale ones.
        load_.deadline.fetch_add(1, std::memory_order_relaxed);
      } else {
        load_.other_failures.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      // A broken promise would mean a request was abandoned — the harness
      // treats any exception from .get() as an indefinite request.
      load_.broken_promises.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ChaosSoak::RunEvent(int event_index) {
  const uint64_t stable_before = server_->stable_version();
  const char* kNames[] = {"good",     "corrupt", "nan",     "slow_good",
                          "mismatch", "torn",    "latency", "stall",
                          "leak"};
  const int kind = event_index % 9;
  std::printf("[chaos] event %d: %s (stable v%llu)\n", event_index,
              kNames[kind], static_cast<unsigned long long>(stable_before));

  switch (kind) {
    case 0:    // Healthy publish: must promote without failing a request.
    case 3: {  // Same, under an injected slow staged load.
      if (kind == 3) {
        util::FaultInjection::Arm(util::kFaultRolloutSlowLoad, 0, 1, 300);
      }
      auto published =
          serve::PublishModel(options_.model_dir,
                              MakeVariant(next_variant_seed_++),
                              static_cast<int64_t>(stable_before));
      if (!published.ok()) {
        Violation("good publish failed: " + published.status().message());
        return;
      }
      if (!server_->WaitForStableVersion(published.value(), 30000)) {
        Violation("healthy version " + std::to_string(published.value()) +
                  " was not promoted");
        return;
      }
      (kind == 0 ? events_.good_swaps : events_.slow_good_swaps)++;
      if (kind == 3) util::FaultInjection::Disarm(util::kFaultRolloutSlowLoad);
      break;
    }
    case 1: {  // Corrupt CRC: quarantine, keep serving, never swap.
      uint64_t version = 0;
      if (!PublishCorrupt(&version)) {
        Violation("corrupt publish plumbing failed");
        return;
      }
      if (!WaitQuarantined(version, 20000)) {
        Violation("corrupt version " + std::to_string(version) +
                  " was not quarantined");
        return;
      }
      if (server_->stable_version() != stable_before) {
        Violation("corrupt version changed the stable version");
        return;
      }
      if (!ProbeStable(stable_before, 10000).is_valid()) {
        Violation("server stopped serving after corrupt publish");
        return;
      }
      ++events_.corrupt_published;
      break;
    }
    case 2: {  // NaN weights: canary fails, rollback is bit-identical.
      const nn::Tensor before = ProbeStable(stable_before, 10000);
      if (!before.is_valid()) {
        Violation("no stable probe before NaN publish");
        return;
      }
      core::BigCityModel poisoned = MakeVariant(next_variant_seed_++);
      Poison(&poisoned);
      auto published = serve::PublishModel(
          options_.model_dir, poisoned, static_cast<int64_t>(stable_before));
      if (!published.ok()) {
        Violation("NaN publish failed: " + published.status().message());
        return;
      }
      if (!server_->WaitForRolloutState(serve::RolloutState::kRolledBack,
                                        30000) ||
          !WaitQuarantined(published.value(), 5000)) {
        Violation("NaN version " + std::to_string(published.value()) +
                  " was not rolled back + quarantined");
        return;
      }
      if (server_->stable_version() != stable_before) {
        Violation("NaN rollback did not restore the stable version");
        return;
      }
      const nn::Tensor after = ProbeStable(stable_before, 10000);
      if (!after.is_valid() || after.data() != before.data()) {
        Violation("post-rollback output not bit-identical to pre-push");
        return;
      }
      ++events_.nan_rollbacks;
      break;
    }
    case 4: {  // Config fingerprint mismatch: quarantine + continue.
      auto published = serve::PublishModelWithFingerprint(
          options_.model_dir, MakeVariant(next_variant_seed_++),
          "cfg-mismatch");
      if (!published.ok()) {
        Violation("mismatch publish failed: " +
                  published.status().message());
        return;
      }
      if (!WaitQuarantined(published.value(), 20000)) {
        Violation("mismatched version " +
                  std::to_string(published.value()) +
                  " was not quarantined");
        return;
      }
      if (server_->stable_version() != stable_before ||
          !ProbeStable(stable_before, 10000).is_valid()) {
        Violation("server degraded after mismatch publish");
        return;
      }
      ++events_.mismatch_published;
      break;
    }
    case 5: {  // Torn pointer write: invisible to the server.
      const auto current_before = util::ReadCurrent(options_.model_dir);
      {
        util::ScopedFault torn(util::kFaultPublishTornPointer, 0, 1, 3);
        auto published = serve::PublishModel(
            options_.model_dir, MakeVariant(next_variant_seed_++),
            static_cast<int64_t>(stable_before));
        if (published.ok()) {
          Violation("torn publish unexpectedly succeeded");
          return;
        }
      }
      const auto current_after = util::ReadCurrent(options_.model_dir);
      const bool pointer_intact =
          current_before.ok()
              ? (current_after.ok() &&
                 current_after.value() == current_before.value())
              : !current_after.ok();
      if (!pointer_intact) {
        Violation("torn pointer write became visible to readers");
        return;
      }
      if (server_->stable_version() != stable_before ||
          !ProbeStable(stable_before, 10000).is_valid()) {
        Violation("server disturbed by torn publish");
        return;
      }
      ++events_.torn_publishes;
      break;
    }
    case 6: {  // Canary latency inflation: gate must roll back.
      util::FaultInjection::Arm(util::kFaultRolloutCanaryLatency, 0,
                                1 << 20, 5'000'000);
      auto published =
          serve::PublishModel(options_.model_dir,
                              MakeVariant(next_variant_seed_++),
                              static_cast<int64_t>(stable_before));
      if (!published.ok()) {
        Violation("latency-event publish failed: " +
                  published.status().message());
        util::FaultInjection::Disarm(util::kFaultRolloutCanaryLatency);
        return;
      }
      const bool rolled_back = server_->WaitForRolloutState(
          serve::RolloutState::kRolledBack, 30000);
      util::FaultInjection::Disarm(util::kFaultRolloutCanaryLatency);
      if (!rolled_back || !WaitQuarantined(published.value(), 5000) ||
          server_->stable_version() != stable_before) {
        Violation("latency-inflated canary was not rolled back");
        return;
      }
      ++events_.latency_rollbacks;
      break;
    }
    case 7: {  // Wedged worker: watchdog reaps + replaces, throughput
               // recovers to the pre-hang baseline.
      // Baseline is the smaller of two observation windows so one lucky
      // window can't set an unreachable recovery bar.
      const double baseline = std::min(MeasureOkThroughput(300),
                                       MeasureOkThroughput(300));
      const uint64_t reaps_before = server_->watchdog_reaps();
      const uint64_t replacements_before = server_->watchdog_replacements();
      // One firing, parked far past the hang threshold; Disarm below
      // releases the wedged thread early once the reap is confirmed.
      util::FaultInjection::Arm(util::kFaultServeWorkerStall, 0, 1, 60000);
      const bool reaped = WaitUntil(
          [&] { return server_->watchdog_reaps() > reaps_before; }, 15000);
      if (!reaped) {
        util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
        Violation("wedged worker was not reaped within 15s");
        return;
      }
      const bool replaced = WaitUntil(
          [&] {
            return server_->watchdog_replacements() > replacements_before;
          },
          15000);
      util::FaultInjection::Disarm(util::kFaultServeWorkerStall);
      if (!replaced) {
        Violation("reaped worker was not replaced within 15s");
        return;
      }
      // No permanent throughput loss: some post-reap window must recover
      // to within 10% of the pre-hang baseline.
      bool recovered = baseline <= 0;
      for (int window = 0; window < 20 && !recovered; ++window) {
        recovered = MeasureOkThroughput(300) >= 0.9 * baseline;
      }
      if (!recovered) {
        Violation("throughput never recovered to 90% of the pre-hang "
                  "baseline after a reap");
        return;
      }
      ++events_.worker_reaps;
      break;
    }
    case 8: {  // Injected leak: shedding engages before the budget is
               // blown, then recovery is monotone after the leak is freed.
      const int64_t current = serve::OverloadController::CurrentMemoryBytes();
      // Land just under the budget: far enough above the high watermark
      // (0.90) to force shedding, with headroom left so the "peak stays
      // under budget" invariant genuinely tests admission control.
      const int64_t target =
          static_cast<int64_t>(0.93 * static_cast<double>(mem_budget_bytes_));
      const int64_t leak_bytes =
          std::max<int64_t>(target - current, 1 << 20);
      const uint64_t sheds_before = server_->overload_sheds();
      util::FaultInjection::Arm(util::kFaultServeWorkerLeak, 0, 1,
                                leak_bytes);
      const bool shedding = WaitUntil(
          [&] {
            return server_->overload()->state() ==
                   serve::OverloadController::State::kShedding;
          },
          10000);
      if (!shedding) {
        util::FaultInjection::Disarm(util::kFaultServeWorkerLeak);
        util::FaultInjection::FreeLeaks();
        Violation("injected leak did not drive the overload controller "
                  "into shedding");
        return;
      }
      if (!WaitUntil([&] { return server_->overload_sheds() > sheds_before; },
                     10000)) {
        util::FaultInjection::Disarm(util::kFaultServeWorkerLeak);
        util::FaultInjection::FreeLeaks();
        Violation("shedding state never shed an admission under load");
        return;
      }
      util::FaultInjection::Disarm(util::kFaultServeWorkerLeak);
      util::FaultInjection::FreeLeaks();
      if (!WaitUntil(
              [&] {
                return server_->overload()->state() ==
                       serve::OverloadController::State::kNormal;
              },
              10000)) {
        Violation("overload controller did not recover to normal after "
                  "the leak was freed");
        return;
      }
      if (!ProbeStable(stable_before, 10000).is_valid()) {
        Violation("server stopped serving after overload recovery");
        return;
      }
      ++events_.leak_sheds;
      break;
    }
  }
}

void ChaosSoak::WriteJson() const {
  if (options_.json_out.empty()) return;
  std::FILE* f = std::fopen(options_.json_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options_.json_out.c_str());
    return;
  }
  const auto quarantined = server_->registry()->Quarantined();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"seconds\": %.1f,\n", options_.seconds);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options_.seed));
  std::fprintf(
      f,
      "  \"requests\": {\"submitted\": %llu, \"definite\": %llu, "
      "\"ok\": %llu, \"degraded\": %llu, \"nonfinite_internal\": %llu, "
      "\"shed\": %llu, \"deadline\": %llu, "
      "\"other_failures\": %llu, \"broken_promises\": %llu},\n",
      static_cast<unsigned long long>(load_.submitted.load()),
      static_cast<unsigned long long>(load_.definite.load()),
      static_cast<unsigned long long>(load_.ok.load()),
      static_cast<unsigned long long>(load_.degraded.load()),
      static_cast<unsigned long long>(load_.nonfinite_internal.load()),
      static_cast<unsigned long long>(load_.shed.load()),
      static_cast<unsigned long long>(load_.deadline.load()),
      static_cast<unsigned long long>(load_.other_failures.load()),
      static_cast<unsigned long long>(load_.broken_promises.load()));
  std::fprintf(
      f,
      "  \"events\": {\"good_swaps\": %d, \"slow_good_swaps\": %d, "
      "\"corrupt_published\": %d, \"mismatch_published\": %d, "
      "\"nan_rollbacks\": %d, \"latency_rollbacks\": %d, "
      "\"torn_publishes\": %d, \"worker_reaps\": %d, "
      "\"leak_sheds\": %d},\n",
      events_.good_swaps, events_.slow_good_swaps,
      events_.corrupt_published, events_.mismatch_published,
      events_.nan_rollbacks, events_.latency_rollbacks,
      events_.torn_publishes, events_.worker_reaps, events_.leak_sheds);
  std::fprintf(
      f,
      "  \"watchdog\": {\"hangs\": %llu, \"reaps\": %llu, "
      "\"replacements\": %llu, \"overload_sheds\": %llu, "
      "\"stale_drops\": %llu, \"overload_state\": \"%s\", "
      "\"peak_sampled_bytes\": %lld, \"mem_budget_bytes\": %lld},\n",
      static_cast<unsigned long long>(server_->watchdog_hangs()),
      static_cast<unsigned long long>(server_->watchdog_reaps()),
      static_cast<unsigned long long>(server_->watchdog_replacements()),
      static_cast<unsigned long long>(server_->overload_sheds()),
      static_cast<unsigned long long>(server_->stale_drops()),
      serve::OverloadController::StateName(server_->overload()->state()),
      static_cast<long long>(server_->overload()->peak_sampled_bytes()),
      static_cast<long long>(mem_budget_bytes_));
  std::fprintf(
      f,
      "  \"server\": {\"generation\": %llu, \"stable_version\": %llu, "
      "\"quarantined\": %zu},\n",
      static_cast<unsigned long long>(server_->generation()),
      static_cast<unsigned long long>(server_->stable_version()),
      quarantined.size());
  const auto slo = server_->slo_tracker().SnapshotAll();
  std::fprintf(f, "  \"slo\": [");
  for (size_t i = 0; i < slo.size(); ++i) {
    const auto& s = slo[i];
    std::fprintf(f,
                 "%s{\"task\": \"%s\", \"window_requests\": %llu, "
                 "\"success_rate\": %.6f, \"burn_rate\": %.6f, "
                 "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"p99_within_objective\": %s}",
                 i == 0 ? "" : ", ", s.name.c_str(),
                 static_cast<unsigned long long>(s.window_requests),
                 s.success_rate, s.burn_rate, s.p50_us, s.p99_us,
                 s.p99_within_objective ? "true" : "false");
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"violations\": [");
  for (size_t i = 0; i < violations_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 violations_[i].c_str());
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"pass\": %s,\n",
               violations_.empty() ? "true" : "false");
  std::fprintf(f, "  \"metrics\": %s\n",
               obs::MetricsRegistry::Global().Snapshot().ToJson().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote chaos report to %s\n", options_.json_out.c_str());
}

int ChaosSoak::Run() {
  serve::ServeOptions serve_options;
  serve_options.num_workers = options_.workers;
  serve_options.queue_capacity = 32;
  serve_options.retry_backoff_ms = 0.1;
  serve_options.rollout.model_dir = options_.model_dir;
  serve_options.rollout.poll_interval_ms = 10;
  // The hammering load mix keeps hitting tasks the freshly staged version
  // has not served yet (its first forward of a task fills that task's
  // instruction K/V), so its earliest forwards run slower than the warm
  // stable cohort's. Slow start discards those cold samples and the gate
  // judges the next warm window; the
  // injected canary fault (seconds per forward) inflates every sample, so
  // the latency event still trips by orders of magnitude.
  serve_options.rollout.canary_slow_start_samples = 48;
  serve_options.rollout.canary_min_requests = 96;
  serve_options.rollout.canary_latency_inflation = 10.0;
  serve_options.rollout.canary_timeout_ms = 20000;
  // Self-healing under test (DESIGN.md §4.16): a tight hang threshold so
  // the stall event reaps within one observation window, and a memory
  // budget sized from the pre-start footprint so only the injected leak —
  // never organic serving allocations — can cross the watermarks.
  serve_options.hang_threshold_ms = 150;
  serve_options.watchdog_poll_ms = 5;
  mem_budget_bytes_ =
      6 * serve::OverloadController::CurrentMemoryBytes() +
      (int64_t{96} << 20);
  serve_options.mem_budget_bytes = mem_budget_bytes_;
  server_ = std::make_unique<serve::InferenceServer>(
      dataset_.get(), model_config_, serve_options, prototype_.get());
  if (auto status = server_->Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  std::vector<std::thread> load_threads;
  load_threads.reserve(static_cast<size_t>(options_.load_threads));
  for (int i = 0; i < options_.load_threads; ++i) {
    load_threads.emplace_back([this, i] { LoadLoop(i); });
  }

  // Deterministic schedule: the seed offsets the starting event so fixed
  // seeds reproduce exactly while different seeds reorder the pressure.
  const Clock::time_point soak_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options_.seconds));
  int event_index = static_cast<int>(options_.seed % 9);
  int events_run = 0;
  // Always complete at least one full cycle (all nine event kinds), then
  // keep cycling until the time budget is spent.
  while (events_run < 9 || Clock::now() < soak_deadline) {
    RunEvent(event_index);
    ++event_index;
    ++events_run;
    if (events_run >= 9 && Clock::now() >= soak_deadline) break;
  }

  stop_load_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : load_threads) thread.join();
  server_->Stop();

  // Cross-thread invariants, judged after the dust settles.
  if (load_.definite.load() + load_.broken_promises.load() !=
      load_.submitted.load()) {
    Violation("request accounting leak: submitted != definite");
  }
  if (load_.broken_promises.load() != 0) {
    Violation(std::to_string(load_.broken_promises.load()) +
              " requests ended without a definite Status");
  }
  if (load_.other_failures.load() != 0) {
    Violation(std::to_string(load_.other_failures.load()) +
              " unexpected (non-kInternal) request failures under load");
  }
  const uint64_t nan_budget =
      200 * static_cast<uint64_t>(std::max(1, events_.nan_rollbacks));
  if (load_.nonfinite_internal.load() > nan_budget) {
    Violation("canary error window unbounded: " +
              std::to_string(load_.nonfinite_internal.load()) +
              " kInternal responses (budget " +
              std::to_string(nan_budget) + ")");
  }
  // Each reap terminates only the wedged worker's in-flight requests (one
  // batch at most); anything beyond a small per-reap budget means healthy
  // requests are being deadline-failed.
  const uint64_t deadline_budget =
      64 * static_cast<uint64_t>(std::max(1, events_.worker_reaps));
  if (load_.deadline.load() > deadline_budget) {
    Violation("reap blast radius unbounded: " +
              std::to_string(load_.deadline.load()) +
              " kDeadlineExceeded responses (budget " +
              std::to_string(deadline_budget) + ")");
  }
  // Shedding must be a response to injected pressure, never organic load:
  // the budget is sized 6x above the pre-start footprint.
  if (events_.leak_sheds == 0 && load_.shed.load() > 0) {
    Violation("admissions were shed without injected memory pressure");
  }
  if (events_.leak_sheds > 0 &&
      server_->overload()->peak_sampled_bytes() >= mem_budget_bytes_) {
    Violation("peak sampled memory " +
              std::to_string(server_->overload()->peak_sampled_bytes()) +
              " reached the budget " + std::to_string(mem_budget_bytes_));
  }
  if (load_.submitted.load() == 0) {
    Violation("load generator produced no requests");
  }
  CheckSloInvariants();

  std::printf(
      "\nchaos soak: %llu requests (%llu ok, %llu nonfinite-internal, "
      "%llu shed, %llu deadline, %llu other failures), %d events "
      "(%d+%d good swaps, %d corrupt, %d mismatch, %d nan-rollback, "
      "%d latency-rollback, %d torn, %d reap, %d leak-shed), "
      "generation %llu, stable v%llu, %zu quarantined, "
      "%llu reaps / %llu replacements, peak %lld / budget %lld bytes\n",
      static_cast<unsigned long long>(load_.submitted.load()),
      static_cast<unsigned long long>(load_.ok.load()),
      static_cast<unsigned long long>(load_.nonfinite_internal.load()),
      static_cast<unsigned long long>(load_.shed.load()),
      static_cast<unsigned long long>(load_.deadline.load()),
      static_cast<unsigned long long>(load_.other_failures.load()),
      events_run, events_.good_swaps, events_.slow_good_swaps,
      events_.corrupt_published, events_.mismatch_published,
      events_.nan_rollbacks, events_.latency_rollbacks,
      events_.torn_publishes, events_.worker_reaps, events_.leak_sheds,
      static_cast<unsigned long long>(server_->generation()),
      static_cast<unsigned long long>(server_->stable_version()),
      server_->registry()->Quarantined().size(),
      static_cast<unsigned long long>(server_->watchdog_reaps()),
      static_cast<unsigned long long>(server_->watchdog_replacements()),
      static_cast<long long>(server_->overload()->peak_sampled_bytes()),
      static_cast<long long>(mem_budget_bytes_));

  WriteJson();
  if (!violations_.empty()) {
    std::fprintf(stderr, "chaos soak FAILED: %zu invariant violations\n",
                 violations_.size());
    return 1;
  }
  std::printf("chaos soak PASSED: all invariants held\n");
  return 0;
}

}  // namespace
}  // namespace bigcity

int main(int argc, char** argv) {
  bigcity::SoakOptions options;
  if (!bigcity::ParseArgs(argc, argv, &options)) {
    std::fprintf(
        stderr,
        "usage: chaos_soak [--seconds F] [--seed N] [--workers N]\n"
        "                  [--load-threads N] [--model-dir PATH] "
        "[--json PATH]\n");
    return 2;
  }
  if (options.model_dir.empty()) {
    options.model_dir = (std::filesystem::temp_directory_path() /
                         ("bigcity_chaos_soak_" +
                          std::to_string(options.seed)))
                            .string();
  }
  std::filesystem::remove_all(options.model_dir);
  std::filesystem::create_directories(options.model_dir);
  bigcity::ChaosSoak soak(options);
  return soak.Run();
}
