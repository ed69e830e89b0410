#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "data/validate.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/model_dir.h"
#include "util/rng.h"

namespace bigcity::serve {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Remaining budget in microseconds; +inf semantics via a large sentinel
/// are avoided — callers gate on `has_deadline` first.
double RemainingUs(const Clock::time_point deadline, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(deadline - now).count();
}

Outcome OutcomeForStatus(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kResourceExhausted:
      return Outcome::kShed;
    case util::StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    case util::StatusCode::kInvalidArgument:
      return Outcome::kQuarantined;
    default:
      return Outcome::kFailed;
  }
}

bool AllFinite(const nn::Tensor& tensor) {
  for (float value : tensor.data()) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

/// True when `served` is a point-for-point prefix of `next` (any length
/// from 2 up to and including next's own) — the autoregressive decode
/// pattern whose shared prompt prefix the KV cache can serve. Each ST
/// token depends only on its own trajectory point, so equal prefix points
/// mean bit-identical cached prompt rows.
bool IsServedPrefix(const data::Trajectory& served,
                    const data::Trajectory& next) {
  if (served.length() < 2 || served.length() > next.length()) return false;
  for (int l = 0; l < served.length(); ++l) {
    const data::TrajPoint& a = served.points[static_cast<size_t>(l)];
    const data::TrajPoint& b = next.points[static_cast<size_t>(l)];
    if (a.segment != b.segment || a.timestamp != b.timestamp) return false;
  }
  return true;
}

/// Batchable tasks are exactly those with a batched model entry point.
int BatchKeyFor(const core::Task task) {
  switch (task) {
    case core::Task::kNextHop:
    case core::Task::kTravelTimeEstimation:
    case core::Task::kTrafficOneStep:
    case core::Task::kTrafficMultiStep:
      return static_cast<int>(task);
    default:
      return -1;
  }
}

}  // namespace

// --- LatencyEstimator -------------------------------------------------------

void InferenceServer::LatencyEstimator::Record(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < kWindow) {
    samples_.push_back(us);
  } else {
    samples_[next_] = us;
    next_ = (next_ + 1) % kWindow;
  }
  ++count_;
}

void InferenceServer::LatencyEstimator::Seed(double us, int copies) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < copies && samples_.size() < kWindow; ++i) {
    samples_.push_back(us);
  }
  count_ += static_cast<size_t>(copies);
}

double InferenceServer::LatencyEstimator::P95(int min_samples) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ < static_cast<size_t>(min_samples) || samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  const size_t rank =
      std::min(sorted.size() - 1,
               static_cast<size_t>(0.95 * static_cast<double>(sorted.size())));
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<ptrdiff_t>(rank), sorted.end());
  return sorted[rank];
}

// --- InferenceServer --------------------------------------------------------

InferenceServer::InferenceServer(const data::CityDataset* dataset,
                                 core::BigCityConfig model_config,
                                 ServeOptions options,
                                 const core::BigCityModel* prototype)
    : dataset_(dataset),
      model_config_(model_config),
      options_(options),
      prototype_(prototype),
      baseline_(dataset),
      queue_(
          {static_cast<size_t>(std::max(1, options.queue_capacity)),
           std::max(1, options.batch_max),
           std::max(0.0, options.batch_window_us)},
          [](const WorkItem& item) { return BatchKeyFor(item.request.task); },
          [](const WorkItem& item) {
            if (!item.has_deadline) {
              return std::numeric_limits<double>::infinity();
            }
            return RemainingUs(item.deadline, Clock::now());
          },
          [this] {
            // Urgency margin: the item must still fit one forward after
            // dispatch, so window + max(p95, window) of slack triggers
            // immediate dispatch.
            const double window = std::max(0.0, options_.batch_window_us);
            const double p95 =
                forward_latency_.P95(options_.latency_min_samples);
            return window + std::max(p95, window);
          },
          [](WorkItem& item, double waited_us) {
            // Batch-dispatch stamp: time since a worker first examined the
            // request, split out of queue_wait in the stage breakdown and
            // recorded as the serve.batch.wait_us histogram at dequeue.
            item.batch_wait_us = waited_us;
          },
          [this] {
            // Memory pressure halves the batch ceiling (per dispatch
            // decision, so recovery is immediate once pressure clears).
            const int configured = std::max(1, options_.batch_max);
            return overload_ != nullptr
                       ? overload_->EffectiveBatchMax(configured)
                       : configured;
          }) {
  BIGCITY_CHECK(dataset != nullptr);
  BIGCITY_CHECK(options_.num_workers >= 1);
}

InferenceServer::~InferenceServer() { Stop(); }

util::Status InferenceServer::LoadWeights(
    core::BigCityModel* model, const std::string& path) const {
  util::Status status = util::Status::Ok();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      BIGCITY_COUNTER_INC("serve.reload.retries");
      const double backoff_ms =
          options_.retry_backoff_ms *
          static_cast<double>(1 << std::min(attempt - 1, 3));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    if (util::FaultInjection::Fire(util::kFaultServeReloadFail)) {
      status = util::Status::Unavailable(
          "checkpoint reload transient fault (injected)");
      continue;
    }
    status = model->LoadStateFromFile(path);
    if (status.ok()) return status;
    // Real I/O errors other than kUnavailable are not retryable (a missing
    // or corrupt file will not heal itself between attempts).
    if (status.code() != util::StatusCode::kUnavailable) return status;
  }
  return status;
}

util::Result<std::shared_ptr<const InferenceServer::ServedModel>>
InferenceServer::BuildVersion(
    uint64_t version, const core::BigCityModel* prototype,
    const std::vector<std::string>& weight_files) const {
  auto served = std::make_shared<ServedModel>();
  served->version = version;
  served->model =
      std::make_unique<core::BigCityModel>(dataset_, model_config_);
  if (options_.attach_lora) {
    util::Rng lora_rng(model_config_.seed ^ 0x10A5EEDULL);
    served->model->backbone()->EnableLora(&lora_rng);
  }
  if (prototype != nullptr) served->model->CopyStateFrom(*prototype);
  for (const std::string& path : weight_files) {
    if (path.empty()) continue;
    util::Status status = LoadWeights(served->model.get(), path);
    if (!status.ok()) return status;
  }
  // Every slice up front, so no request fills one and concurrent forwards
  // only read the library.
  served->model->tokenizer()->FillLibrary();
  return std::shared_ptr<const ServedModel>(std::move(served));
}

InferenceServer::Route InferenceServer::PickModel() {
  const uint64_t share = static_cast<uint64_t>(options_.num_workers);
  std::lock_guard<std::mutex> lock(models_mu_);
  Route route;
  route.canary = canary_ != nullptr && canary_dequeues_++ % share == 0;
  route.served = route.canary ? canary_ : stable_;
  return route;
}

uint64_t InferenceServer::stable_version() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return stable_ != nullptr ? stable_->version : 0;
}

util::Status InferenceServer::Start() {
  BIGCITY_CHECK(!running_);
  breakers_.clear();
  breakers_.reserve(core::kNumTasks);
  for (int i = 0; i < core::kNumTasks; ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(
        options_.breaker_failure_threshold, options_.breaker_cooldown_ms));
  }
#if BIGCITY_OBS
  // serve.breaker.state.<TaskName> gauges; resolved once because the
  // names are dynamic (the macro fast path caches per call site only).
  for (int i = 0; i < core::kNumTasks; ++i) {
    breaker_gauges_[static_cast<size_t>(i)] =
        obs::MetricsRegistry::Global().GetGauge(
            "serve.breaker.state." +
            core::TaskName(static_cast<core::Task>(i)));
    breaker_gauges_[static_cast<size_t>(i)]->Set(0);
  }
  // serve.outcome.<TaskName>.<outcome> counters plus one SLO window per
  // task (handle == task index by construction; RegisterTask is
  // idempotent by name, so a restarted server reuses its windows).
  for (int i = 0; i < core::kNumTasks; ++i) {
    const std::string& task_name =
        core::TaskName(static_cast<core::Task>(i));
    for (int o = 0; o < kNumOutcomes; ++o) {
      outcome_counters_[static_cast<size_t>(i)][static_cast<size_t>(o)] =
          obs::MetricsRegistry::Global().GetCounter(
              "serve.outcome." + task_name + "." +
              OutcomeName(static_cast<Outcome>(o)));
    }
    obs::SloObjective objective;
    objective.success_rate = options_.slo_success_objective;
    objective.p99_us = options_.slo_p99_ms * 1000.0;
    objective.window = static_cast<size_t>(std::max(1, options_.slo_window));
    slo_.RegisterTask(task_name, objective);
  }
#endif
  if (options_.initial_forward_estimate_us > 0) {
    forward_latency_.Seed(options_.initial_forward_estimate_us,
                          options_.latency_min_samples);
  }
  {
    std::lock_guard<std::mutex> lock(kv_sessions_.mu);
    kv_sessions_.capacity.store(
        static_cast<size_t>(std::max(0, options_.kv_sessions)) *
            static_cast<size_t>(options_.num_workers),
        std::memory_order_relaxed);
    kv_sessions_.sessions.clear();
  }
  {
    // The overload controller exists in every configuration (budget 0 =
    // memory control disabled) so the queue's batch_max callback and the
    // serve.overload.* gauges are uniform.
    OverloadController::Options overload_options;
    overload_options.mem_budget_bytes = options_.mem_budget_bytes;
    overload_options.sojourn_target_ms = options_.sojourn_target_ms;
    overload_options.sojourn_interval_ms = options_.sojourn_interval_ms;
    overload_ = std::make_unique<OverloadController>(overload_options);
  }
  // Version discovery before the model is built: when the model dir
  // already holds a valid CURRENT version, the server boots from it.
  uint64_t initial_version = 0;
  std::string initial_weights;
  if (!options_.rollout.model_dir.empty()) {
    registry_ = std::make_unique<ModelRegistry>(
        options_.rollout.model_dir, core::ConfigFingerprint(model_config_));
    util::Result<VersionInfo> candidate = registry_->PollOnce(0);
    if (candidate.ok()) {
      initial_version = candidate.value().version;
      initial_weights = candidate.value().weights_path;
    }
  }

  util::Result<std::shared_ptr<const ServedModel>> built =
      BuildVersion(initial_version, prototype_,
                   {options_.checkpoint_path, initial_weights});
  if (!built.ok()) {
    registry_.reset();
    return built.status();
  }
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    stable_ = std::move(built).value();
    canary_.reset();
  }
  generation_.store(0, std::memory_order_relaxed);
  BIGCITY_GAUGE_SET("serve.rollout.generation", 0);
  BIGCITY_GAUGE_SET("serve.rollout.stable_version", initial_version);

  heartbeats_.clear();
  for (int i = 0; i < options_.num_workers; ++i) {
    heartbeats_.push_back(std::make_unique<Heartbeat>());
  }
  running_ = true;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.reserve(static_cast<size_t>(options_.num_workers));
    for (int i = 0; i < options_.num_workers; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i, /*generation=*/0); });
    }
  }
  if (registry_ != nullptr) {
    rollout_stop_ = false;
    SetRolloutState(RolloutState::kIdle);
    rollout_thread_ = std::thread([this] { RolloutLoop(); });
  }
  supervisor_stop_ = false;
  supervisor_thread_ = std::thread([this] { SupervisorLoop(); });
  return util::Status::Ok();
}

void InferenceServer::Stop() {
  if (!running_) return;
  // Controller first: an undecided canary is rolled back before the
  // workers drain, so shutdown never promotes without evidence.
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    rollout_stop_ = true;
  }
  rollout_cv_.notify_all();
  if (rollout_thread_.joinable()) rollout_thread_.join();
  // Supervisor before the queue closes: no reap/replace churn while the
  // workers drain. Parked (wedged) threads join after the live ones —
  // injected stalls are finite and disarm-released, so the joins finish.
  {
    std::lock_guard<std::mutex> lock(supervisor_mu_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_thread_.joinable()) supervisor_thread_.join();
  queue_.Close();
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    to_join.swap(workers_);
    for (std::thread& parked : parked_) to_join.push_back(std::move(parked));
    parked_.clear();
  }
  for (std::thread& worker : to_join) {
    if (worker.joinable()) worker.join();
  }
  // Final gauge push so short runs export their complete SLO windows
  // even when no task reached the tracker's self-publish cadence.
  slo_.Publish();
  running_ = false;
}

void InferenceServer::Finish(WorkItem& item, Response response) {
  // Claim the shared completion first: exactly one of {owning worker,
  // watchdog reap} resolves the promise. A worker that lost the race —
  // its request was reaped off it while it was wedged — drops its late
  // result here, counters and all (the reap already accounted for it).
  if (item.completion == nullptr ||
      item.completion->done.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  BIGCITY_TRACE_ID_SCOPE(item.trace_id);
  BIGCITY_TRACE_SPAN("serve.finish", "serve");
  response.id = item.request.id;
  response.trace_id = item.trace_id;
  response.total_us = MicrosSince(item.submitted, Clock::now());
  response.queue_wait_us = item.queue_wait_us;
  response.batch_size = item.batch_size;
  response.stages = item.stages;
  response.model_version = item.model_version;
  if (response.status.ok()) {
    BIGCITY_COUNTER_INC("serve.completed");
    response.outcome = response.degraded ? Outcome::kDegraded : Outcome::kOk;
  } else if (response.outcome == Outcome::kOk) {
    // Not pre-set by a stage (the breaker sets kRejected itself).
    response.outcome = OutcomeForStatus(response.status);
  }
  BIGCITY_HISTOGRAM_RECORD("serve.e2e_us", response.total_us);
  // Flow terminus: the 'f' event inside the finish span closes this
  // request's chrome://tracing flow on whichever thread resolved it.
  BIGCITY_TRACE_FLOW("serve.request", "serve", 'f', item.trace_id);
#if BIGCITY_OBS
  const size_t task_index = static_cast<size_t>(item.request.task);
  const size_t outcome_index = static_cast<size_t>(response.outcome);
  if (task_index < outcome_counters_.size() &&
      outcome_index < static_cast<size_t>(kNumOutcomes) &&
      outcome_counters_[task_index][outcome_index] != nullptr) {
    outcome_counters_[task_index][outcome_index]->Add(1);
  }
  // SLO accounting sees every terminal outcome: shed and expired requests
  // burn error budget exactly like forward failures.
  slo_.Record(static_cast<int>(task_index), response.status.ok(),
              response.total_us);
#endif
  item.completion->promise.set_value(std::move(response));
}

void InferenceServer::FinishReaped(const InflightRecord& record) {
  if (record.completion == nullptr ||
      record.completion->done.exchange(true, std::memory_order_acq_rel)) {
    return;  // The worker finished it in the instant before the reap.
  }
  BIGCITY_TRACE_ID_SCOPE(record.trace_id);
  BIGCITY_TRACE_SPAN("serve.watchdog.reap", "serve");
  Response response;
  response.status =
      util::Status::DeadlineExceeded("request reaped off hung worker");
  response.outcome = Outcome::kReaped;
  response.id = record.id;
  response.trace_id = record.trace_id;
  response.total_us = MicrosSince(record.submitted, Clock::now());
  response.queue_wait_us = record.queue_wait_us;
  response.model_version = record.model_version;
  BIGCITY_HISTOGRAM_RECORD("serve.e2e_us", response.total_us);
  // Flow terminus on the supervisor thread: the reaped request's trace
  // still reads submit -> worker step -> reap, end to end.
  BIGCITY_TRACE_FLOW("serve.request", "serve", 'f', record.trace_id);
#if BIGCITY_OBS
  const size_t task_index = static_cast<size_t>(record.task);
  const size_t outcome_index = static_cast<size_t>(Outcome::kReaped);
  if (task_index < outcome_counters_.size() &&
      outcome_counters_[task_index][outcome_index] != nullptr) {
    outcome_counters_[task_index][outcome_index]->Add(1);
  }
  slo_.Record(static_cast<int>(task_index), false, response.total_us);
#endif
  watchdog_reaps_.fetch_add(1, std::memory_order_relaxed);
  BIGCITY_COUNTER_INC("serve.watchdog.reaped");
  record.completion->promise.set_value(std::move(response));
}

std::future<Response> InferenceServer::Submit(Request request) {
  BIGCITY_COUNTER_INC("serve.submitted");
  WorkItem item;
  // Trace-id allocation is always-on plain code (one relaxed atomic): the
  // id is part of the response contract in every build flavor, only the
  // span/flow recording below compiles out.
  item.trace_id = obs::NextTraceId();
  item.submitted = Clock::now();
  BIGCITY_TRACE_ID_SCOPE(item.trace_id);
  BIGCITY_TRACE_SPAN("serve.submit", "serve");
  // Flow origin: the 's' event inside the submit span starts this
  // request's chrome://tracing flow; ProcessBatch steps it ('t') on the
  // worker thread and Finish terminates it ('f').
  BIGCITY_TRACE_FLOW("serve.request", "serve", 's', item.trace_id);
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  item.has_deadline = deadline_ms > 0;
  if (item.has_deadline) {
    item.deadline =
        item.submitted +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }
  item.request = std::move(request);
  item.completion = std::make_shared<Completion>();
  std::future<Response> future = item.completion->promise.get_future();

  // Checkpoint 1 (pre-queue): a request that arrives already expired never
  // occupies a queue slot.
  const bool expired =
      util::FaultInjection::Fire(util::kFaultServeExpireAtAdmit) ||
      (item.has_deadline && Clock::now() >= item.deadline);
  if (expired) {
    BIGCITY_COUNTER_INC("serve.deadline.pre_queue");
    Response response;
    response.status =
        util::Status::DeadlineExceeded("deadline expired before admission");
    Finish(item, std::move(response));
    return future;
  }

  // Memory-aware shed (DESIGN.md §4.16): while the overload controller is
  // in its shedding state, new admissions fail fast with the same typed
  // status as a full queue — before they can allocate anything.
  if (overload_ != nullptr && !overload_->AdmitOk()) {
    BIGCITY_COUNTER_INC("serve.overload.shed");
    overload_sheds_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.status = util::Status::ResourceExhausted(
        "memory overload: shedding admissions");
    Finish(item, std::move(response));
    return future;
  }

  if (!queue_.TryPush(std::move(item))) {
    // TryPush takes an rvalue reference and only moves on success, so the
    // promise is still ours to resolve.
    BIGCITY_COUNTER_INC("serve.shed");
    Response response;
    response.status = util::Status::ResourceExhausted(
        running_ ? "queue full" : "server not running");
    Finish(item, std::move(response));
    return future;
  }
  BIGCITY_GAUGE_SET("serve.queue_depth", queue_.depth());
  return future;
}

Response InferenceServer::ServeSync(Request request) {
  return Submit(std::move(request)).get();
}

CircuitBreaker& InferenceServer::BreakerFor(core::Task task) {
  const size_t index = static_cast<size_t>(task);
  BIGCITY_CHECK(index < breakers_.size());
  return *breakers_[index];
}

void InferenceServer::PublishBreakerState(core::Task task) {
#if BIGCITY_OBS
  const size_t index = static_cast<size_t>(task);
  if (index < breakers_.size() && breaker_gauges_[index] != nullptr) {
    breaker_gauges_[index]->Set(
        static_cast<double>(static_cast<int>(breakers_[index]->state())));
  }
#endif
}

CircuitBreaker::State InferenceServer::breaker_state(core::Task task) const {
  const size_t index = static_cast<size_t>(task);
  if (index >= breakers_.size()) return CircuitBreaker::State::kClosed;
  return breakers_[index]->state();
}

double InferenceServer::forward_p95_us() const {
  return forward_latency_.P95(options_.latency_min_samples);
}

util::Status InferenceServer::ValidateRequest(const Request& request) const {
  const int num_segments = dataset_->network().num_segments();
  switch (request.task) {
    case core::Task::kNextHop:
    case core::Task::kTravelTimeEstimation:
    case core::Task::kTrajClassification:
    case core::Task::kMostSimilarSearch: {
      util::Status status =
          data::ValidateTrajectory(request.trajectory, num_segments);
      if (!status.ok()) return status;
      if (request.trajectory.length() < 2) {
        return util::Status::InvalidArgument(
            "trajectory needs at least 2 points");
      }
      return util::Status::Ok();
    }
    case core::Task::kTrajRecovery: {
      util::Status status =
          data::ValidateTrajectory(request.trajectory, num_segments);
      if (!status.ok()) return status;
      if (request.kept.size() < 2) {
        return util::Status::InvalidArgument(
            "recovery needs at least 2 kept indices");
      }
      return util::Status::Ok();
    }
    case core::Task::kTrafficOneStep:
    case core::Task::kTrafficMultiStep: {
      const int horizon =
          request.task == core::Task::kTrafficOneStep ? 1 : request.horizon;
      if (horizon < 1) {
        return util::Status::InvalidArgument("horizon must be >= 1");
      }
      // Only the observed input window must exist; the horizon is a pure
      // prediction and may extend past the end of the series.
      return data::ValidateTrafficWindow(dataset_->traffic(), request.segment,
                                         request.start_slice,
                                         model_config_.traffic_input_steps);
    }
    case core::Task::kTrafficImputation: {
      util::Status status =
          data::ValidateTrafficWindow(dataset_->traffic(), request.segment,
                                      request.start_slice, request.window);
      if (!status.ok()) return status;
      for (int position : request.masked) {
        if (position < 0 || position >= request.window) {
          return util::Status::InvalidArgument(
              "imputation mask position out of window");
        }
      }
      return util::Status::Ok();
    }
  }
  return util::Status::InvalidArgument("unknown task");
}

util::Status InferenceServer::Screen(WorkItem& item) const {
  // Checkpoint 2 (pre-tokenize / post-dequeue): time spent queued counts
  // against the budget.
  if (util::FaultInjection::Fire(util::kFaultServeExpireAtTokenize) ||
      (item.has_deadline && Clock::now() >= item.deadline)) {
    BIGCITY_COUNTER_INC("serve.deadline.pre_tokenize");
    return util::Status::DeadlineExceeded("deadline expired before tokenize");
  }
  {
    BIGCITY_TIMED_SCOPE_NAMED("serve.validate_us", "serve.validate", "serve");
    const Clock::time_point validate_start = Clock::now();
    util::Status status = ValidateRequest(item.request);
    item.stages.validate_us += MicrosSince(validate_start, Clock::now());
    if (!status.ok()) {
      BIGCITY_COUNTER_INC("serve.quarantined");
      return status;
    }
  }
  // Checkpoint 3 (pre-forward): last exit before the expensive stage.
  if (util::FaultInjection::Fire(util::kFaultServeExpireAtForward) ||
      (item.has_deadline && Clock::now() >= item.deadline)) {
    BIGCITY_COUNTER_INC("serve.deadline.pre_forward");
    return util::Status::DeadlineExceeded("deadline expired before forward");
  }
  return util::Status::Ok();
}

Response InferenceServer::Degrade(const Request& request) const {
  util::Result<nn::Tensor> fallback = [&]() -> util::Result<nn::Tensor> {
    switch (request.task) {
      case core::Task::kNextHop:
        return baseline_.NextHopScores(request.trajectory);
      case core::Task::kTravelTimeEstimation:
        return baseline_.TravelTimeDeltas(request.trajectory);
      case core::Task::kTrafficOneStep:
        return baseline_.PredictTraffic(request.segment, request.start_slice,
                                        model_config_.traffic_input_steps, 1);
      case core::Task::kTrafficMultiStep:
        return baseline_.PredictTraffic(request.segment, request.start_slice,
                                        model_config_.traffic_input_steps,
                                        request.horizon);
      default:
        return util::Status::Unavailable("task has no degraded fallback");
    }
  }();
  Response response;
  response.status = fallback.status();
  if (fallback.ok()) {
    response.output = std::move(fallback).value();
    response.degraded = true;
  }
  return response;
}

std::optional<InferenceServer::KvSession> InferenceServer::CheckoutKvSession(
    KvSessionStore* kv, uint64_t version,
    const data::Trajectory& trajectory) {
  std::lock_guard<std::mutex> lock(kv->mu);
  auto best = kv->sessions.end();
  for (auto it = kv->sessions.begin(); it != kv->sessions.end(); ++it) {
    if (it->version != version) continue;
    if (it->cache.length() == 0) continue;
    if (!IsServedPrefix(it->served, trajectory)) continue;
    if (best == kv->sessions.end() ||
        it->served.length() > best->served.length()) {
      best = it;
    }
  }
  if (best == kv->sessions.end()) return std::nullopt;
  KvSession session = std::move(*best);
  kv->sessions.erase(best);
  return session;
}

void InferenceServer::CheckinKvSession(KvSessionStore* kv,
                                       KvSession session) {
  std::lock_guard<std::mutex> lock(kv->mu);
  if (kv->sessions.size() >= kv->capacity.load(std::memory_order_relaxed)) {
    auto oldest = kv->sessions.begin();
    for (auto it = kv->sessions.begin(); it != kv->sessions.end(); ++it) {
      if (it->tick < oldest->tick) oldest = it;
    }
    kv->sessions.erase(oldest);
  }
  session.tick = ++kv->tick;
  kv->sessions.push_back(std::move(session));
}

util::Result<std::vector<nn::Tensor>> InferenceServer::RunModelBatch(
    const std::vector<WorkItem*>& items, const ServedModel& served,
    KvSessionStore* kv) {
  core::BigCityModel* model = served.model.get();
  const Request& first = items[0]->request;
  // Tasks without a batched forward dispatch alone (batch key < 0).
  const auto alone =
      [&](util::Result<nn::Tensor> result)
      -> util::Result<std::vector<nn::Tensor>> {
    BIGCITY_CHECK_EQ(items.size(), 1u);
    if (!result.ok()) return result.status();
    return std::vector<nn::Tensor>{std::move(result).value()};
  };
  switch (first.task) {
    case core::Task::kNextHop: {
      std::vector<data::Trajectory> prefixes;
      prefixes.reserve(items.size());
      for (const WorkItem* item : items) {
        prefixes.push_back(item->request.trajectory);
      }
      if (kv == nullptr ||
          kv->capacity.load(std::memory_order_relaxed) == 0) {
        return model->TryBatchNextHopLogits(prefixes);
      }
      // Continuous batching over the shared KV store: members extending a
      // cached decode check their session out (the batched forward runs
      // only their suffix rows against it), the rest get fresh sessions
      // the same forward prefills. Stacking hits and misses into one tall
      // forward is what amortizes the frozen weights' memory traffic — the
      // dominant cost of a short decode — across the whole batch. Sessions
      // are worker-local while checked out and only returned to the store
      // on success; a failed batch leaves no trace. Sessions are
      // version-scoped, so a hot-swapped model never reuses attention
      // state computed by different weights.
      std::vector<KvSession> sessions(items.size());
      std::vector<nn::KvCache*> caches(items.size(), nullptr);
      for (size_t i = 0; i < items.size(); ++i) {
        const data::Trajectory& trajectory = items[i]->request.trajectory;
        if (trajectory.length() < 2) continue;
        std::optional<KvSession> hit =
            CheckoutKvSession(kv, served.version, trajectory);
        if (hit.has_value()) {
          BIGCITY_COUNTER_INC("serve.cache.kv.hit");
          sessions[i] = std::move(*hit);
        } else {
          BIGCITY_COUNTER_INC("serve.cache.kv.miss");
          sessions[i].version = served.version;
        }
        caches[i] = &sessions[i].cache;
      }
      util::Result<std::vector<nn::Tensor>> result =
          model->TryBatchNextHopLogits(prefixes, &caches);
      if (result.ok()) {
        // The forward appended each member's K/V rows to its session's
        // heap storage, which outlives the batch's plan arena.
        for (size_t i = 0; i < items.size(); ++i) {
          if (caches[i] == nullptr) continue;
          sessions[i].served = items[i]->request.trajectory;
          CheckinKvSession(kv, std::move(sessions[i]));
        }
      }
      return result;
    }
    case core::Task::kTravelTimeEstimation: {
      std::vector<data::Trajectory> trajectories;
      trajectories.reserve(items.size());
      for (const WorkItem* item : items) {
        trajectories.push_back(item->request.trajectory);
      }
      return model->TryBatchTravelTimeDeltas(trajectories);
    }
    case core::Task::kTrafficOneStep:
    case core::Task::kTrafficMultiStep: {
      std::vector<core::BigCityModel::TrafficQuery> queries;
      queries.reserve(items.size());
      for (const WorkItem* item : items) {
        const Request& request = item->request;
        const int horizon =
            request.task == core::Task::kTrafficOneStep ? 1 : request.horizon;
        queries.push_back(core::BigCityModel::TrafficQuery{
            request.segment, request.start_slice, horizon});
      }
      return model->TryBatchPredictTraffic(queries);
    }
    case core::Task::kTrajClassification:
      return alone(model->TryClassifyLogits(first.trajectory));
    case core::Task::kMostSimilarSearch:
      return alone(model->TryEmbed(first.trajectory));
    case core::Task::kTrajRecovery:
      return alone(model->TryRecoverLogits(first.trajectory, first.kept));
    case core::Task::kTrafficImputation:
      return alone(model->TryImputeTraffic(first.segment, first.start_slice,
                                           first.window, first.masked));
  }
  return util::Status::InvalidArgument("unknown task");
}

util::Result<std::vector<nn::Tensor>> InferenceServer::Forward(
    const std::vector<WorkItem*>& items, const ServedModel& served,
    nn::PlanCache* plans, KvSessionStore* kv) {
  if (util::FaultInjection::Fire(util::kFaultServeTokenizeFail)) {
    return util::Status::Unavailable("tokenizer transient fault (injected)");
  }
  if (util::FaultInjection::Fire(util::kFaultServeForwardFail)) {
    return util::Status::Unavailable("forward transient fault (injected)");
  }
  // No autograd on the hot path (intermediates die immediately), and the
  // whole forward allocates inside this worker's plan arena. Plans are
  // keyed by task + batch-size bucket, so a stable traffic mix replays a
  // recycled arena; varying member lengths under one key just regrow it
  // (still bit-identical). Outputs are cloned onto the heap before the
  // scope rewinds the arena.
  nn::NoGradGuard no_grad;
  int64_t bucket = 1;
  while (bucket < static_cast<int64_t>(items.size())) bucket <<= 1;
  nn::PlanScope plan_scope(
      plans, nn::PlanKey{core::TaskName(items[0]->request.task), bucket});
  util::Result<std::vector<nn::Tensor>> result =
      RunModelBatch(items, served, kv);
  if (result.ok() && plan_scope.active()) {
    nn::ArenaPin pin;
    for (nn::Tensor& output : result.value()) output = output.Detached();
  }
  return result;
}

std::vector<Response> InferenceServer::Deliver(
    const std::vector<WorkItem*>& items, std::vector<nn::Tensor> outputs,
    Clock::time_point forward_start, const Route& route,
    CircuitBreaker::Decision decision) {
  const double forward_us = MicrosSince(forward_start, Clock::now());
  // Every member waited the whole forward, so each gets the identical
  // tokenize/forward split.
  const double tokenize_us =
      obs::RequestStageValue(obs::RequestStage::kTokenize);
  CohortStats& cohort = route.canary ? canary_stats_ : stable_stats_;
  std::vector<Response> responses(items.size());
  bool any_ok = false;
  for (size_t i = 0; i < items.size(); ++i) {
    StageBreakdown& stages = items[i]->stages;
    stages.tokenize_us += tokenize_us;
    stages.forward_us += std::max(0.0, forward_us - tokenize_us);
    if (!AllFinite(outputs[i])) {
      // A NaN/Inf output is a model-health defect, not a transient: no
      // retry (the same weights produce the same poison), and it stays
      // out of the circuit breaker — the breaker protects against failing
      // *tasks*, the rollout health gate against bad *weights*.
      BIGCITY_COUNTER_INC("serve.nonfinite_outputs");
      cohort.RecordNonFinite();
      responses[i].status =
          util::Status::Internal("model produced non-finite output");
      continue;
    }
    double cohort_us = forward_us;
    if (route.canary &&
        util::FaultInjection::Fire(util::kFaultRolloutCanaryLatency)) {
      // Inflation is applied to the cohort sample only: the gate must
      // see it, the budget-degradation estimator must not.
      cohort_us += static_cast<double>(
          util::FaultInjection::Param(util::kFaultRolloutCanaryLatency));
    }
    cohort.RecordSuccess(cohort_us);
    responses[i].output = std::move(outputs[i]);
    any_ok = true;
  }
  const core::Task task = items[0]->request.task;
  if (any_ok) {
    forward_latency_.Record(forward_us);
    BIGCITY_HISTOGRAM_RECORD("serve.forward_us", forward_us);
    BreakerFor(task).RecordSuccess();
  } else if (decision == CircuitBreaker::Decision::kProbe) {
    BreakerFor(task).ReleaseProbe();
  }
  PublishBreakerState(task);
  return responses;
}

Response InferenceServer::ServeAlone(WorkItem& item, const Route& route,
                                     CircuitBreaker::Decision decision,
                                     nn::PlanCache* plans,
                                     KvSessionStore* kv) {
  const core::Task task = item.request.task;
  CircuitBreaker& breaker = BreakerFor(task);
  Response response;
  // Everything between here and the start of the attempt that succeeds —
  // backoff sleeps plus failed attempts — is the request's retry
  // overhead in the stage breakdown.
  const Clock::time_point attempts_start = Clock::now();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      BIGCITY_COUNTER_INC("serve.retries");
      ++response.retries;
      double backoff_ms = options_.retry_backoff_ms *
                          static_cast<double>(1 << std::min(attempt - 1, 3));
      if (item.has_deadline) {
        const double remaining_ms =
            RemainingUs(item.deadline, Clock::now()) / 1000.0;
        if (remaining_ms <= 0) {
          BIGCITY_COUNTER_INC("serve.deadline.pre_forward");
          response.status = util::Status::DeadlineExceeded(
              "deadline expired during retry backoff");
          if (breaker.RecordFailure(Clock::now())) {
            BIGCITY_COUNTER_INC("serve.breaker.opened");
          }
          PublishBreakerState(task);
          return response;
        }
        backoff_ms = std::min(backoff_ms, remaining_ms);
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    // The thread-local stage accumulator carves tokenize time out of the
    // forward wall time; cleared per attempt so a retried forward
    // never double-counts the failed attempt's stages.
    obs::RequestStagesClear();
    const Clock::time_point forward_start = Clock::now();
    util::Result<std::vector<nn::Tensor>> result =
        Forward({&item}, *route.served, plans, kv);
    if (result.ok()) {
      item.stages.retry_us += MicrosSince(attempts_start, forward_start);
      Response delivered = std::move(Deliver(
          {&item}, std::move(result).value(), forward_start, route,
          decision)[0]);
      delivered.retries = response.retries;
      return delivered;
    }
    response.status = result.status();
    // Validation errors are deterministic — retrying cannot help, and they
    // must not trip the breaker (the input is at fault, not the model).
    if (response.status.code() == util::StatusCode::kInvalidArgument) {
      BIGCITY_COUNTER_INC("serve.quarantined");
      if (decision == CircuitBreaker::Decision::kProbe) {
        breaker.ReleaseProbe();
        PublishBreakerState(task);
      }
      return response;
    }
  }
  item.stages.retry_us += MicrosSince(attempts_start, Clock::now());
  BIGCITY_COUNTER_INC("serve.failures");
  (route.canary ? canary_stats_ : stable_stats_).RecordFailure();
  if (breaker.RecordFailure(Clock::now())) {
    BIGCITY_COUNTER_INC("serve.breaker.opened");
  }
  PublishBreakerState(task);
  return response;
}

void InferenceServer::ProcessBatch(std::vector<WorkItem>& items,
                                   const Route& route, nn::PlanCache* plans,
                                   KvSessionStore* kv) {
  // A lone member's id is active for the whole dequeue, so every span
  // below — tokenizer and cache spans included — is stamped with it. A
  // shared forward carries no single request's id: one 't' step per
  // member inside the span binds every member's flow to it, so
  // chrome://tracing renders each request as submit -> this dequeue ->
  // its finish, all on one connected flow.
  BIGCITY_TRACE_ID_SCOPE(items.size() == 1 ? items[0].trace_id : 0);
  BIGCITY_TRACE_SPAN("serve.process_batch", "serve");
  for (const WorkItem& item : items) {
    BIGCITY_TRACE_FLOW("serve.request", "serve", 't', item.trace_id);
  }
  // Deterministic wedge site (after the flow steps so a reaped request's
  // trace is still submit -> worker -> reap): the thread spins here for
  // the armed Param ms, exactly like a forward stuck in a pathological
  // input, and the watchdog must recover without its cooperation. Every
  // member of a stalled batch gets reaped together.
  util::FaultInjection::MaybeStall(util::kFaultServeWorkerStall);
  const core::Task task = items[0].request.task;

  // Per-member checkpoints and validation: every request keeps its own
  // typed failure; only the survivors reach the breaker.
  std::vector<WorkItem*> live;
  live.reserve(items.size());
  for (WorkItem& item : items) {
    util::Status status = Screen(item);
    if (!status.ok()) {
      Response response;
      response.status = std::move(status);
      Finish(item, std::move(response));
      continue;
    }
    live.push_back(&item);
  }
  if (live.empty()) return;

  // One breaker admission per dequeue. A rejection degrades (or rejects)
  // every member; budget degradation is decided per member, because
  // deadlines differ across a batch. A probe is exempt from it: its whole
  // point is to exercise the real path.
  const CircuitBreaker::Decision decision =
      BreakerFor(task).Admit(Clock::now());
  PublishBreakerState(task);
  if (decision == CircuitBreaker::Decision::kProbe) {
    BIGCITY_COUNTER_INC("serve.breaker.probes");
  }
  const bool budget_check =
      decision == CircuitBreaker::Decision::kAllow &&
      options_.degrade_on_tight_budget && DegradableTask(task);
  double p95_us = -1;  // Read once, at the first member with a deadline.
  std::vector<WorkItem*> members;
  members.reserve(live.size());
  for (WorkItem* item : live) {
    if (decision == CircuitBreaker::Decision::kReject) {
      if (DegradableTask(task)) {
        BIGCITY_COUNTER_INC("serve.degraded.breaker");
        Finish(*item, Degrade(item->request));
      } else {
        BIGCITY_COUNTER_INC("serve.breaker.rejected");
        Response response;
        response.status = util::Status::Unavailable("circuit breaker open");
        response.outcome = Outcome::kRejected;
        Finish(*item, std::move(response));
      }
      continue;
    }
    if (budget_check && item->has_deadline) {
      if (p95_us < 0) {
        p95_us = forward_latency_.P95(options_.latency_min_samples);
      }
      if (p95_us > 0 && RemainingUs(item->deadline, Clock::now()) < p95_us) {
        BIGCITY_COUNTER_INC("serve.degraded.budget");
        Finish(*item, Degrade(item->request));
        continue;
      }
    }
    members.push_back(item);
  }
  if (members.empty()) return;
  for (WorkItem* item : members) {
    item->batch_size = static_cast<int>(members.size());
  }

  if (members.size() > 1) {
    // One batched attempt. When it fails (a transient fault, or a member
    // the model's own screening rejects), every member retries alone with
    // its full budget under this dequeue's breaker decision, which keeps
    // quarantine and breaker attribution exact per request.
    obs::RequestStagesClear();
    const Clock::time_point forward_start = Clock::now();
    util::Result<std::vector<nn::Tensor>> result =
        Forward(members, *route.served, plans, kv);
    if (result.ok()) {
      std::vector<Response> responses =
          Deliver(members, std::move(result).value(), forward_start, route,
                  decision);
      for (size_t i = 0; i < members.size(); ++i) {
        Finish(*members[i], std::move(responses[i]));
      }
      return;
    }
    BIGCITY_COUNTER_INC("serve.batch.fallback");
    // The abandoned attempt is retry overhead for every member, so the
    // stage partition still sums to ~total_us.
    const double failed_us = MicrosSince(forward_start, Clock::now());
    for (WorkItem* item : members) item->stages.retry_us += failed_us;
  }
  for (WorkItem* item : members) {
    Finish(*item, ServeAlone(*item, route, decision, plans, kv));
  }
}

void InferenceServer::RegisterInflight(Heartbeat& hb,
                                       const std::vector<WorkItem*>& items) {
  std::lock_guard<std::mutex> lock(hb.inflight_mu);
  hb.inflight.clear();
  hb.inflight.reserve(items.size());
  for (const WorkItem* item : items) {
    InflightRecord record;
    record.completion = item->completion;
    record.id = item->request.id;
    record.trace_id = item->trace_id;
    record.task = item->request.task;
    record.submitted = item->submitted;
    record.queue_wait_us = item->queue_wait_us;
    record.model_version = item->model_version;
    hb.inflight.push_back(std::move(record));
  }
}

void InferenceServer::ClearInflight(Heartbeat& hb) {
  std::lock_guard<std::mutex> lock(hb.inflight_mu);
  hb.inflight.clear();
}

void InferenceServer::WorkerLoop(int worker_index, uint64_t generation) {
  // Per-worker plan cache: plans are single-threaded by contract, and a
  // worker's arena footprint is fixed once its (task, bucket) mix has
  // been captured. A replacement worker starts with a cold cache; the
  // wedged incarnation's arena slabs are retired by the plan cache's
  // poison valve when its thread finally unwinds.
  nn::PlanCache plan_cache(/*capacity=*/16, options_.plans);
  // KV decode sessions live in the server-wide store (kv_sessions_) so a
  // walk keeps hitting no matter which worker serves each step; version
  // scoping retires them naturally across hot-swaps.
  KvSessionStore* kv_sessions = &kv_sessions_;
  Heartbeat& hb = *heartbeats_[static_cast<size_t>(worker_index)];
  // Incarnation check: the watchdog bumps the slot's generation when it
  // replaces a wedged worker, and the superseded thread must neither
  // serve new requests nor write the heartbeat the replacement now owns.
  const auto superseded = [&hb, generation] {
    return hb.generation.load(std::memory_order_acquire) != generation;
  };
  for (;;) {
    if (superseded()) return;
    // Idle beat before blocking: the supervisor treats a non-busy worker
    // as healthy, so a quiet queue never looks like a hang.
    hb.epoch.fetch_add(1, std::memory_order_release);
    std::vector<WorkItem> batch = queue_.NextBatch();
    if (batch.empty()) return;  // Closed and drained.
    BIGCITY_GAUGE_SET("serve.queue_depth", queue_.depth());
    BIGCITY_HISTOGRAM_RECORD("serve.batch.size",
                             static_cast<double>(batch.size()));

    if (util::FaultInjection::Fire(util::kFaultServeWorkerHold)) {
      // Park until the test disarms the site (worker occupancy control;
      // Param doubles as the poll flag so disarming releases immediately).
      while (util::FaultInjection::Param(util::kFaultServeWorkerHold) != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // Deterministic memory-pressure site: retains Param bytes per firing
    // so chaos scenarios drive the overload controller with real resident
    // memory instead of mocked gauges.
    util::FaultInjection::MaybeLeak(util::kFaultServeWorkerLeak);

    const Clock::time_point dequeued = Clock::now();
    for (WorkItem& item : batch) {
      // Response::queue_wait_us keeps its historical admission-to-dequeue
      // meaning; the stage breakdown splits it at a worker's first look at
      // the request into queue wait and batch wait (stamped by the
      // dispatch callback), which partition it exactly.
      item.queue_wait_us = MicrosSince(item.submitted, dequeued);
      item.batch_size = static_cast<int>(batch.size());
      item.stages.batch_wait_us = item.batch_wait_us;
      item.stages.queue_wait_us =
          std::max(0.0, item.queue_wait_us - item.batch_wait_us);
      BIGCITY_HISTOGRAM_RECORD("serve.queue_wait_us", item.queue_wait_us);
      BIGCITY_HISTOGRAM_RECORD("serve.batch.wait_us", item.batch_wait_us);
    }

    // CoDel sojourn bound (DESIGN.md §4.16): when queue residency has sat
    // above target for a full interval, drop the stalest requests at
    // dequeue with a definite kDeadlineExceeded instead of burning a
    // forward on work that already missed its useful latency.
    if (overload_ != nullptr && overload_->options().sojourn_target_ms > 0) {
      std::vector<WorkItem> kept;
      kept.reserve(batch.size());
      for (WorkItem& item : batch) {
        if (overload_->ShouldDropStale(item.queue_wait_us, dequeued)) {
          stale_drops_.fetch_add(1, std::memory_order_relaxed);
          BIGCITY_COUNTER_INC("serve.overload.stale_dropped");
          Response response;
          response.status = util::Status::DeadlineExceeded(
              "stale request dropped: queue sojourn above target");
          Finish(item, std::move(response));
        } else {
          kept.push_back(std::move(item));
        }
      }
      batch = std::move(kept);
      if (batch.empty()) continue;
    }

    // The pick pins one version for the whole batch: a concurrent
    // promotion or rollback replaces the server's pointers, never this
    // in-flight forward's.
    const Route route = PickModel();

    // Busy heartbeat + in-flight registration, gated on still owning the
    // slot: a superseded incarnation serves what it already popped (its
    // Finish calls lose the completion race harmlessly) but never touches
    // the replacement's heartbeat.
    std::vector<WorkItem*> members;
    members.reserve(batch.size());
    for (WorkItem& item : batch) {
      item.model_version = route.served->version;
      members.push_back(&item);
    }
    const bool current = !superseded();
    if (current) {
      hb.trace_id.store(batch[0].trace_id, std::memory_order_release);
      hb.busy.store(true, std::memory_order_release);
      hb.epoch.fetch_add(1, std::memory_order_release);
      RegisterInflight(hb, members);
    }

    ProcessBatch(batch, route, &plan_cache, kv_sessions);

    if (current && !superseded()) {
      ClearInflight(hb);
      hb.busy.store(false, std::memory_order_release);
      hb.trace_id.store(0, std::memory_order_release);
      hb.epoch.fetch_add(1, std::memory_order_release);
    }
  }
}

// --- Watchdog supervisor ----------------------------------------------------

void InferenceServer::ReapWorker(size_t worker) {
  Heartbeat& hb = *heartbeats_[worker];
  BIGCITY_TRACE_SPAN("serve.watchdog.reap_worker", "serve");
  watchdog_hangs_.fetch_add(1, std::memory_order_relaxed);
  BIGCITY_COUNTER_INC("serve.watchdog.hangs");
  BIGCITY_LOG(Warning) << "watchdog: worker " << worker
                       << " hung mid-request (trace "
                       << hb.trace_id.load(std::memory_order_acquire)
                       << "); reaping";

  // Supersede the wedged incarnation first: from here its heartbeat
  // writes stop and its eventual results lose the completion race.
  const uint64_t next_generation =
      hb.generation.fetch_add(1, std::memory_order_acq_rel) + 1;

  // Resolve its in-flight requests with a definite status — the caller
  // gets kDeadlineExceeded now, not a promise that hangs with the thread.
  std::vector<InflightRecord> records;
  {
    std::lock_guard<std::mutex> lock(hb.inflight_mu);
    records.swap(hb.inflight);
  }
  for (const InflightRecord& record : records) FinishReaped(record);

  // The heartbeat now describes the replacement incarnation.
  hb.busy.store(false, std::memory_order_release);
  hb.trace_id.store(0, std::memory_order_release);
  hb.epoch.fetch_add(1, std::memory_order_release);

  // Park the wedged thread (joined at Stop; stalls are finite) and start
  // the replacement incarnation in its slot. Nothing is rebuilt: the
  // replacement picks the same models every worker serves from, and the
  // wedged thread's pick keeps its version alive until it unwinds.
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    parked_.push_back(std::move(workers_[worker]));
    BIGCITY_GAUGE_SET("serve.watchdog.parked",
                      static_cast<double>(parked_.size()));
    workers_[worker] = std::thread([this, worker, next_generation] {
      WorkerLoop(static_cast<int>(worker), next_generation);
    });
  }
  watchdog_replacements_.fetch_add(1, std::memory_order_relaxed);
  BIGCITY_COUNTER_INC("serve.watchdog.replacements");
}

void InferenceServer::ApplyOverloadState() {
  queue_.SetEffectiveCapacity(overload_->EffectiveQueueCapacity(
      static_cast<size_t>(std::max(1, options_.queue_capacity))));
  const size_t base_kv =
      static_cast<size_t>(std::max(0, options_.kv_sessions)) *
      static_cast<size_t>(options_.num_workers);
  const size_t effective_kv = overload_->EffectiveKvCapacity(base_kv);
  std::lock_guard<std::mutex> lock(kv_sessions_.mu);
  kv_sessions_.capacity.store(effective_kv, std::memory_order_relaxed);
  // Evict LRU overflow now — shrinking the cap must release memory, not
  // merely stop growth.
  while (kv_sessions_.sessions.size() > effective_kv) {
    auto oldest = kv_sessions_.sessions.begin();
    for (auto it = kv_sessions_.sessions.begin();
         it != kv_sessions_.sessions.end(); ++it) {
      if (it->tick < oldest->tick) oldest = it;
    }
    kv_sessions_.sessions.erase(oldest);
  }
}

void InferenceServer::SupervisorLoop() {
  struct Watch {
    uint64_t epoch = 0;
    Clock::time_point changed;
  };
  std::vector<Watch> watches(heartbeats_.size());
  const Clock::time_point started = Clock::now();
  for (Watch& watch : watches) watch.changed = started;
  const double poll_ms = std::max(1.0, options_.watchdog_poll_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(supervisor_mu_);
      supervisor_cv_.wait_for(
          lock, std::chrono::duration<double, std::milli>(poll_ms),
          [this] { return supervisor_stop_; });
      if (supervisor_stop_) return;
    }
    const Clock::time_point now = Clock::now();
    if (options_.hang_threshold_ms > 0) {
      for (size_t i = 0; i < heartbeats_.size(); ++i) {
        Heartbeat& hb = *heartbeats_[i];
        const uint64_t epoch = hb.epoch.load(std::memory_order_acquire);
        if (epoch != watches[i].epoch) {
          watches[i].epoch = epoch;
          watches[i].changed = now;
          continue;
        }
        if (!hb.busy.load(std::memory_order_acquire)) {
          // Idle workers beat only around dequeue; quiet is not hung.
          watches[i].changed = now;
          continue;
        }
        const double stalled_ms =
            std::chrono::duration<double, std::milli>(now - watches[i].changed)
                .count();
        if (stalled_ms >= options_.hang_threshold_ms) {
          ReapWorker(i);
          watches[i].epoch = hb.epoch.load(std::memory_order_acquire);
          watches[i].changed = Clock::now();
        }
      }
    }
    if (overload_ != nullptr) {
      overload_->Sample();
      ApplyOverloadState();
    }
  }
}

// --- Rollout controller -----------------------------------------------------

void InferenceServer::SetRolloutState(RolloutState state) {
  rollout_state_.store(static_cast<int>(state), std::memory_order_relaxed);
  BIGCITY_GAUGE_SET("serve.rollout.state", static_cast<int>(state));
  BIGCITY_LOG(Info) << "rollout state -> " << RolloutStateName(state);
}

bool InferenceServer::RolloutWait(double ms) {
  std::unique_lock<std::mutex> lock(rollout_mu_);
  rollout_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(ms),
                       [this] { return rollout_stop_; });
  return rollout_stop_;
}

void InferenceServer::RolloutLoop() {
  for (;;) {
    if (RolloutWait(options_.rollout.poll_interval_ms)) return;
    util::Result<VersionInfo> candidate =
        registry_->PollOnce(stable_version());
    if (!candidate.ok()) continue;  // Nothing new (or quarantined).
    RunRollout(candidate.value());
  }
}

void InferenceServer::RunRollout(const VersionInfo& info) {
  BIGCITY_TRACE_SPAN("serve.rollout", "rollout");
  SetRolloutState(RolloutState::kStaged);
  BIGCITY_COUNTER_INC("serve.rollout.staged");
  BIGCITY_LOG(Info) << "rollout: staging version " << info.version
                    << " (parent " << info.manifest.parent_version << ")";

  // Stage: build + load + library fill entirely off the request path.
  std::shared_ptr<const ServedModel> staged;
  {
    BIGCITY_TRACE_SPAN("serve.rollout.stage", "rollout");
    if (util::FaultInjection::Fire(util::kFaultRolloutSlowLoad)) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          static_cast<double>(
              util::FaultInjection::Param(util::kFaultRolloutSlowLoad))));
    }
    util::Result<std::shared_ptr<const ServedModel>> built =
        BuildVersion(info.version, /*prototype=*/nullptr, {info.weights_path});
    if (!built.ok()) {
      registry_->Quarantine(info.version,
                            "staged load failed: " + built.status().message());
      SetRolloutState(RolloutState::kQuarantined);
      return;
    }
    staged = std::move(built).value();
    // Warm the candidate's packed weights and instruction K/V off the
    // request path, so the canary's first measured forwards are not
    // cold-start outliers that would false-trip the latency gate. Results
    // are discarded; a genuinely bad model is still judged on real canary
    // traffic.
    int warmed = 0;
    nn::NoGradGuard no_grad;  // Warm caches the way workers will use them.
    for (const data::Trajectory& trajectory : dataset_->train()) {
      if (trajectory.length() < 2) continue;
      (void)staged->model->TryNextHopLogits(trajectory);
      if (++warmed >= 3) break;
    }
    (void)staged->model->TryPredictTraffic(0, 0, 1);
  }

  // Canary: the candidate takes every num_workers-th dequeue; both cohorts
  // restart so the gate compares like-for-like windows. The canary cohort
  // additionally discards its slow-start latency samples.
  stable_stats_.Reset();
  canary_stats_.Reset(options_.rollout.canary_slow_start_samples);
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    canary_ = staged;
    canary_dequeues_ = 0;
  }
  const auto end_canary = [this] {
    std::lock_guard<std::mutex> lock(models_mu_);
    canary_.reset();
  };
  SetRolloutState(RolloutState::kCanary);
  BIGCITY_COUNTER_INC("serve.rollout.canary_started");

  GateVerdict verdict = GateVerdict::kNotReady;
  std::string reason;
  const Clock::time_point gate_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.rollout.canary_timeout_ms));
  {
    BIGCITY_TRACE_SPAN("serve.rollout.canary", "rollout");
    while (Clock::now() < gate_deadline) {
      double slo_burn_rate = 0.0;
#if BIGCITY_OBS
      // Fleet-wide burn rate feeds the gate only when the deployment set
      // canary_max_burn_rate; a 16-request floor keeps a near-empty SLO
      // window from deciding a rollout.
      slo_burn_rate = slo_.MaxBurnRate(/*min_requests=*/16);
#endif
      // With one worker every dequeue is the canary's, so the stable
      // cohort holds at most the stray forwards picked before the canary
      // was set, which could never fill the latency floor: judge the
      // canary against an empty stable cohort.
      const CohortStats::Snapshot stable = options_.num_workers > 1
                                               ? stable_stats_.Get()
                                               : CohortStats::Snapshot{};
      verdict = EvaluateCanary(stable, canary_stats_.Get(), options_.rollout,
                               &reason, slo_burn_rate);
      if (verdict != GateVerdict::kNotReady) break;
      if (RolloutWait(2.0)) {
        // Shutdown mid-canary: the stable model serves on, and the
        // candidate stays unjudged (eligible again at the next start).
        end_canary();
        SetRolloutState(RolloutState::kIdle);
        return;
      }
    }
  }

  if (verdict == GateVerdict::kPass) {
    SetRolloutState(RolloutState::kRolling);
    BIGCITY_TRACE_SPAN("serve.rollout.rolling", "rollout");
    // Promotion is one pointer store: every later dequeue serves the
    // candidate, and the old stable model is freed with its last forward.
    {
      std::lock_guard<std::mutex> lock(models_mu_);
      stable_ = std::move(staged);
      canary_.reset();
    }
    const uint64_t generation =
        generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    BIGCITY_COUNTER_INC("serve.rollout.completed");
    BIGCITY_GAUGE_SET("serve.rollout.generation", generation);
    BIGCITY_GAUGE_SET("serve.rollout.stable_version", info.version);
    SetRolloutState(RolloutState::kStable);
    BIGCITY_LOG(Info) << "rollout: version " << info.version
                      << " is stable (generation " << generation << ")";
  } else {
    if (verdict == GateVerdict::kNotReady) {
      reason = "canary starved: fewer than " +
               std::to_string(options_.rollout.canary_min_requests) +
               " canary requests or " + std::to_string(kMinLatencySamples) +
               " latency samples per cohort within " +
               std::to_string(options_.rollout.canary_timeout_ms) +
               "ms (never promote without evidence)";
    }
    // Roll back: the stable model was never touched, so post-rollback
    // outputs are bit-identical to pre-canary ones.
    end_canary();
    registry_->Quarantine(info.version, reason);
    BIGCITY_COUNTER_INC("serve.rollout.rolled_back");
    SetRolloutState(RolloutState::kRolledBack);
    BIGCITY_LOG(Warning) << "rollout: version " << info.version
                         << " rolled back: " << reason;
  }
}

bool InferenceServer::WaitForRolloutState(RolloutState state,
                                          double timeout_ms) const {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  while (rollout_state() != state) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

bool InferenceServer::WaitForStableVersion(uint64_t version,
                                           double timeout_ms) const {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  while (stable_version() != version) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

}  // namespace bigcity::serve
